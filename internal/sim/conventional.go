package sim

import "math"

// conventional walks one array lifetime under the conventional
// replacement policy (paper Fig. 1 / Fig. 2 structure):
//
//	OK --disk failure--> EXPOSED --second failure--> DATA LOSS
//	                      |            (tape restore, downtime DL)
//	                      +--service, correct--> OK
//	                      +--service, wrong disk pulled--> DU
//	DU --undo attempt ok--> OK         (downtime DU)
//	DU --pulled disk crashes--> DATA LOSS
//	DU --another member fails--> DATA LOSS   (MC-only refinement)
//
// The EXPOSED state is degraded but up; DU and DATA LOSS are down.
func (sc *scratch) conventional(mission float64) iterStats {
	p, r := sc.p, &sc.src
	n := p.Disks
	fail := sc.fail
	for i := range fail {
		fail[i] = p.TTF.Sample(r)
	}
	var st iterStats
	var hep gap // the human-error trials' skip counter
	t := 0.0

	for t < mission {
		// All members nominally present; wait for the first failure.
		// One scan yields both the failing member and the runner-up
		// clock the exposed-state race needs; expired clocks fire at
		// the current time, matching nextFailure's clamp.
		var fi, si int
		var tFail, tSecond float64
		if n == 4 {
			fi, tFail, si, tSecond = twoMin4(fail)
		} else {
			fi, tFail, si, tSecond = twoMin(fail)
		}
		if tFail < t {
			tFail = t
		}
		if tSecond < tFail {
			tSecond = tFail
		}
		if tFail >= mission {
			break
		}
		st.events.Failures++
		t = tFail

		// Exposed: replacement service races a second member failure.
		repairEnd := t + p.Repair.Sample(r)
		if tSecond < repairEnd {
			if tSecond >= mission {
				break // exposed is up; mission ends first
			}
			// Double disk failure: data loss, restore from backup.
			st.events.Failures++
			st.events.DoubleFailures++
			t = sc.dataLoss(&st, tSecond, mission, fi, si)
			continue
		}
		if repairEnd >= mission {
			break
		}
		t = repairEnd
		if !hep.hit(r, sc.hep) {
			// Correct replacement: the failed member is fresh.
			fail[fi] = t + p.TTF.Sample(r)
			continue
		}

		// Wrong disk replacement: a healthy member was pulled. The
		// array is unavailable until the error is undone; meanwhile
		// the pulled disk may crash and other members may fail.
		st.events.HumanErrors++
		pi := pickOther(r, n, fi, noDisk)
		duStart := t
		cur := t
		resolved := false
		for !resolved {
			attemptEnd := cur + p.HERecovery.Sample(r)
			crashAt := cur + expInv(r, sc.crashInv)
			oi, tOther := nextFailure(fail, cur, fi, pi)
			next := math.Min(attemptEnd, math.Min(crashAt, tOther))
			if next >= mission {
				st.downDU += mission - duStart
				t = mission
				break
			}
			switch next {
			case tOther:
				// A further member failed while unavailable: even a
				// successful undo leaves two lost members => data loss.
				st.events.Failures++
				st.events.DoubleFailures++
				st.downDU += tOther - duStart
				t = sc.dataLoss(&st, tOther, mission, fi, oi)
				resolved = true
			case crashAt:
				// The wrongly removed disk crashed while out.
				st.events.Crashes++
				st.downDU += crashAt - duStart
				t = sc.dataLoss(&st, crashAt, mission, fi, pi)
				resolved = true
			default:
				st.events.UndoAttempts++
				if hep.hit(r, sc.hep) {
					// The undo itself went wrong; array stays DU.
					st.events.HumanErrors++
					cur = attemptEnd
					continue
				}
				// Error undone: pulled disk re-seated (keeps its age),
				// failed member properly replaced. When configured,
				// the array additionally restores consistency from
				// backup before coming back up.
				end := attemptEnd
				if p.ResyncAfterUndo {
					end += p.TapeRestore.Sample(r)
				}
				st.downDU += math.Min(end, mission) - duStart
				fail[fi] = end + p.TTF.Sample(r)
				t = end
				resolved = true
			}
		}
	}
	return st
}

// dataLoss accounts a data-loss interval starting at start, restores
// from backup, refreshes the two lost members, and returns the time
// the array is operational again (clipped at mission end).
func (sc *scratch) dataLoss(st *iterStats, start, mission float64, d1, d2 int) float64 {
	p, r := sc.p, &sc.src
	restoreEnd := start + p.TapeRestore.Sample(r)
	end := math.Min(restoreEnd, mission)
	st.downDL += end - start
	if d1 != noDisk {
		sc.fail[d1] = restoreEnd + p.TTF.Sample(r)
	}
	if d2 != noDisk {
		sc.fail[d2] = restoreEnd + p.TTF.Sample(r)
	}
	sc.clocksChanged()
	return restoreEnd
}
