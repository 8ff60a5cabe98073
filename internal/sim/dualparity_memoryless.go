package sim

import "math"

// dpMemK holds the dual-parity memoryless kernel's state constants.
// The walker state collapses to the number of missing members (failed
// or wrongly pulled): 0, 1 or 2 while up, plus the DU state where a
// third member is inaccessible. Semantics mirror dualparity.go. e1
// and e2 race the replacement service against a further failure with
// one and two members missing; du is the DU state's race.
type dpMemK struct {
	invOP      float64 // 1/(n*lambda): fully redundant
	e1, e2, du race
	invTape    float64
}

func makeDpMemK(p *ArrayParams, m memRates, bias float64) dpMemK {
	n := float64(p.Disks)
	return dpMemK{
		invOP:   inv(n * m.lambda),
		e1:      newRace(m.muDF, 0, n-1, m.lambda, bias),
		e2:      newRace(m.muDF, 0, n-2, m.lambda, bias),
		du:      newRace(m.muHE, p.CrashRate, n-3, m.lambda, bias),
		invTape: inv(m.muDDF),
	}
}

// dualParityMemoryless walks one lifetime of the dual-parity policy's
// CTMC: conventional replacement on an array that tolerates two
// concurrent member losses. Transition-for-transition it mirrors
// dualParity (same event counts, downtime accounting and censoring,
// up to the aging-through-outages refinement documented in
// conventional_memoryless.go); missing counts the members currently
// failed or wrongly pulled.
func (sc *scratch) dualParityMemoryless(mission float64) iterStats {
	k, r, p := &sc.dpK, &sc.src, sc.p
	var st iterStats
	t := 0.0
	missing := 0
	// gap1 skip-samples the exposed-1 race: repair-wins remaining
	// before a second failure beats the service (see
	// conventionalMemoryless's raceGap).
	gap1 := -1
	exact1 := false

	cycleRate := 0.0
	if !sc.noBatch && k.invOP > 0 {
		cycleRate = 1 / (k.invOP + k.e1.inv)
	}

	for t < mission {
		switch missing {
		case 0:
			if cycleRate > 0 {
				// Benign-cycle aggregation: min(gap1, hepGap) quiet
				// failure-repair cycles collapse into two-Erlang chunks
				// (see conventionalMemoryless).
				if gap1 < 0 || (gap1 == 0 && !exact1) {
					gap1, exact1 = drawGeomGap(r, k.e1.gapInv, k.e1.gapQCap)
				}
				if sc.hepGap < 0 || (sc.hepGap == 0 && !sc.hepExact) {
					sc.drawHEPGap(r)
				}
				for {
					c := quietChunk((mission-t)*cycleRate, gap1, sc.hepGap, math.MaxInt)
					if c == 0 {
						break
					}
					opSum := sc.erlangChunk(c, k.invOP)
					e1Sum := sc.erlangChunk(c, k.e1.inv)
					if t+opSum+e1Sum >= mission {
						sc.resolveChunk(&st, t, mission, c, []float64{opSum, e1Sum}, []float64{0, k.e1.lnQuiet})
						return st
					}
					t += opSum + e1Sum
					st.events.Failures += int64(c)
					st.logW += float64(c) * k.e1.lnQuiet
					gap1 -= c
					sc.hepGap -= c
				}
			}
			// Fully redundant: wait for the first failure.
			t += sc.expNext() * k.invOP
			if t >= mission {
				return st
			}
			st.events.Failures++
			missing = 1

		case 1:
			// Exposed-1: repair service races a second failure.
			dt := sc.expNext() * k.e1.inv
			if t+dt >= mission {
				return st
			}
			t += dt
			if gap1 < 0 || (gap1 == 0 && !exact1) {
				gap1, exact1 = drawGeomGap(r, k.e1.gapInv, k.e1.gapQCap)
			}
			if gap1 == 0 {
				gap1 = -1
				st.events.Failures++
				st.logW += k.e1.lnFail
				missing = 2
				continue
			}
			gap1--
			st.logW += k.e1.lnQuiet
			if !sc.hepTrial(r) {
				missing = 0
				continue
			}
			// Wrong pull: a healthy member joins the missing set, but
			// dual parity keeps the data up (exposed-2).
			st.events.HumanErrors++
			missing = 2

		default:
			// Exposed-2 (up, critical): repair races a third loss.
			dt := sc.expNext() * k.e2.inv
			if t+dt >= mission {
				return st
			}
			t += dt
			if r.Float64()*k.e2.tot < k.e2.cutF {
				// Third concurrent loss: data gone.
				st.events.Failures++
				st.events.DoubleFailures++
				st.logW += k.e2.lnFail
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				missing = 0
				continue
			}
			st.logW += k.e2.lnQuiet
			if !sc.hepTrial(r) {
				missing = 1 // one member repaired
				continue
			}
			// Wrong pull with two members already missing: the third
			// inaccessible member makes the data unavailable.
			st.events.HumanErrors++
			duStart := t
			for {
				dt := sc.expNext() * k.du.inv
				if t+dt >= mission {
					st.downDU += mission - duStart
					return st
				}
				t += dt
				u := r.Float64() * k.du.tot
				if u < k.du.cutU {
					st.logW += k.du.lnQuiet
					st.events.UndoAttempts++
					if sc.hepTrial(r) {
						st.events.HumanErrors++
						continue
					}
					// Undo succeeded; per the analytic chain the array
					// returns to exposed-2, unless the resync policy
					// restores everything.
					if p.ResyncAfterUndo {
						end := t + sc.expNext()*k.invTape
						st.downDU += math.Min(end, mission) - duStart
						t = end
						missing = 0
					} else {
						st.downDU += t - duStart
						// missing stays 2: back to exposed-2.
					}
					break
				}
				st.downDU += t - duStart
				if u < k.du.cutC {
					st.logW += k.du.lnQuiet
					st.events.Crashes++
				} else {
					// Fourth loss while unavailable: catastrophic.
					st.logW += k.du.lnFail
					st.events.Failures++
					st.events.DoubleFailures++
				}
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				missing = 0
				break
			}
		}
	}
	return st
}
