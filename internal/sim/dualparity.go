package sim

import "math"

// dualParity walks one array lifetime for a dual-parity
// (RAID6-style) array under conventional replacement, mirroring
// model.DualParityChain:
//
//   - one failed member: exposed-1 (up); service repairs it, a wrong
//     pull leaves two members missing => exposed-2 (still up);
//   - two failed/missing members: exposed-2 (up, critical); service
//     repairs one, a wrong pull takes the third member => DU (down);
//   - three concurrent losses => data loss (tape restore);
//   - in DU, undo attempts race the pulled disk's crash and further
//     failures; a successful undo is followed by the configured
//     resync restore.
//
// Repair services restore one member at a time (rate muDF each), as in
// the analytic chain.
func (sc *scratch) dualParity(mission float64) iterStats {
	p, r := sc.p, &sc.src
	n := p.Disks
	fail := sc.fail
	for i := range fail {
		fail[i] = p.TTF.Sample(r)
	}
	var st iterStats
	var hep gap // the human-error trials' skip counter
	t := 0.0
	// missing tracks the indices currently failed or wrongly pulled
	// (at most 3 before a restore).
	var down1, down2 int = noDisk, noDisk

	for t < mission {
		switch {
		case down1 == noDisk:
			// Fully redundant: wait for the first failure.
			fi, tFail := nextFailure(fail, t, noDisk, noDisk)
			if tFail >= mission {
				return st
			}
			st.events.Failures++
			down1, t = fi, tFail

		case down2 == noDisk:
			// Exposed-1: repair service races a second failure.
			svcEnd := t + p.Repair.Sample(r)
			si, tSecond := nextFailure(fail, t, down1, noDisk)
			if math.Min(svcEnd, tSecond) >= mission {
				return st
			}
			if tSecond < svcEnd {
				st.events.Failures++
				down2, t = si, tSecond
				continue
			}
			t = svcEnd
			if !hep.hit(r, sc.hep) {
				fail[down1] = t + p.TTF.Sample(r)
				down1 = noDisk
				continue
			}
			// Wrong pull: a healthy member joins the missing set, but
			// dual parity keeps the data up (exposed-2).
			st.events.HumanErrors++
			down2 = pickOther(r, n, down1, noDisk)

		default:
			// Exposed-2 (up, critical): repair service races a third
			// loss.
			svcEnd := t + p.Repair.Sample(r)
			oi, tThird := nextFailure(fail, t, down1, down2)
			if math.Min(svcEnd, tThird) >= mission {
				return st
			}
			if tThird < svcEnd {
				// Third concurrent loss: data gone.
				st.events.Failures++
				st.events.DoubleFailures++
				t = sc.dataLoss(&st, tThird, mission, down1, down2)
				fail[oi] = t + p.TTF.Sample(r)
				down1, down2 = noDisk, noDisk
				continue
			}
			t = svcEnd
			if !hep.hit(r, sc.hep) {
				// One member repaired; back to exposed-1.
				fail[down1] = t + p.TTF.Sample(r)
				down1, down2 = down2, noDisk
				continue
			}
			// Wrong pull with two members already missing: the third
			// inaccessible member makes the data unavailable.
			st.events.HumanErrors++
			pulled := pickOther(r, n, down1, down2)
			duStart := t
			cur := t
			for {
				attemptEnd := cur + p.HERecovery.Sample(r)
				crashAt := cur + expInv(r, sc.crashInv)
				xi, tOther := nextFailure3(fail, cur, down1, down2, pulled)
				next := math.Min(attemptEnd, math.Min(crashAt, tOther))
				if next >= mission {
					st.downDU += mission - duStart
					return st
				}
				if tOther == next {
					// Fourth loss while unavailable: catastrophic.
					st.events.Failures++
					st.events.DoubleFailures++
					st.downDU += tOther - duStart
					t = sc.dataLoss(&st, tOther, mission, down1, down2)
					fail[pulled] = t + p.TTF.Sample(r)
					fail[xi] = t + p.TTF.Sample(r)
					down1, down2 = noDisk, noDisk
					break
				}
				if crashAt == next {
					st.events.Crashes++
					st.downDU += crashAt - duStart
					t = sc.dataLoss(&st, crashAt, mission, down1, down2)
					fail[pulled] = t + p.TTF.Sample(r)
					down1, down2 = noDisk, noDisk
					break
				}
				st.events.UndoAttempts++
				if hep.hit(r, sc.hep) {
					st.events.HumanErrors++
					cur = attemptEnd
					continue
				}
				// Undo succeeded; per the analytic chain the array
				// returns to exposed-2 (the pulled member re-seats),
				// unless the resync policy restores everything.
				end := attemptEnd
				if p.ResyncAfterUndo {
					end += p.TapeRestore.Sample(r)
					st.downDU += math.Min(end, mission) - duStart
					fail[down1] = end + p.TTF.Sample(r)
					fail[down2] = end + p.TTF.Sample(r)
					down1, down2 = noDisk, noDisk
				} else {
					st.downDU += attemptEnd - duStart
				}
				t = end
				break
			}
		}
	}
	return st
}

// nextFailure3 is nextFailure with three exclusions.
func nextFailure3(fail []float64, now float64, ex1, ex2, ex3 int) (int, float64) {
	idx, at := -1, math.Inf(1)
	for i, f := range fail {
		if i == ex1 || i == ex2 || i == ex3 {
			continue
		}
		if f < at {
			idx, at = i, f
		}
	}
	if idx >= 0 && at < now {
		at = now
	}
	return idx, at
}
