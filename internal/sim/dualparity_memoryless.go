package sim

import "math"

// dpMemK holds the dual-parity memoryless kernel's state constants.
// The walker state collapses to the number of missing members (failed
// or wrongly pulled): 0, 1 or 2 while up, plus the DU state where a
// third member is inaccessible. Semantics mirror dualparity.go. e1
// and e2 race the replacement service against a further failure with
// one and two members missing; du is the DU state's race; cycleRate
// is as in convMemK.
type dpMemK struct {
	invOP      float64 // 1/(n*lambda): fully redundant
	e1, e2, du race
	invTape    float64
	cycleRate  float64
}

func makeDpMemK(p *ArrayParams, m memRates, bias float64, noBatch bool) dpMemK {
	n := float64(p.Disks)
	k := dpMemK{
		invOP:   inv(n * m.lambda),
		e1:      newRace(m.muDF, 0, n-1, m.lambda, bias),
		e2:      newRace(m.muDF, 0, n-2, m.lambda, bias),
		du:      newRace(m.muHE, p.CrashRate, n-3, m.lambda, bias),
		invTape: inv(m.muDDF),
	}
	if !noBatch && k.invOP > 0 {
		k.cycleRate = 1 / (k.invOP + k.e1.inv)
	}
	return k
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
	// e1 skip-samples the exposed-1 race: repair-wins remaining before
	// a second failure beats the service (see conventionalMemoryless's
	// exp), and hep the error-free services and undo attempts before
	// the next human error.
	var e1, hep gap

	// The quiet-mission path (see conventionalMemoryless) resolves a
	// lifetime quiet to its end, or hands the walk failure m+1 in
	// exposed-1.
	if k.cycleRate > 0 {
		e1.fill(r, k.e1.fail)
		hep.fill(r, sc.hep)
		if m := min(e1.n, hep.n); sc.quietRuns(m) {
			var jumped bool
			if t, jumped = sc.quietMission(&st, m, []float64{k.e1.inv}, []float64{k.e1.lnQuiet}); !jumped {
				return st
			}
			e1.n -= m
			hep.n -= m
			missing = 1
		}
	}

	for t < mission {
		switch missing {
		case 0:
			if k.cycleRate > 0 {
				// Benign-cycle aggregation: min(e1, hep) quiet
				// failure-repair cycles collapse into two-Erlang chunks
				// (see conventionalMemoryless).
				e1.fill(r, k.e1.fail)
				hep.fill(r, sc.hep)
				for {
					c := quietChunk((mission-t)*k.cycleRate, e1.n, hep.n, math.MaxInt)
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
					e1.n -= c
					hep.n -= c
				}
			}
			// Fully redundant: wait for the first failure.
			t += r.ExpFloat64() * k.invOP
			if t >= mission {
				return st
			}
			st.events.Failures++
			missing = 1

		case 1:
			// Exposed-1: repair service races a second failure.
			dt := r.ExpFloat64() * k.e1.inv
			if t+dt >= mission {
				return st
			}
			t += dt
			if e1.hit(r, k.e1.fail) {
				st.events.Failures++
				st.logW += k.e1.lnFail
				missing = 2
				continue
			}
			st.logW += k.e1.lnQuiet
			if !hep.hit(r, sc.hep) {
				missing = 0
				continue
			}
			// Wrong pull: a healthy member joins the missing set, but
			// dual parity keeps the data up (exposed-2).
			st.events.HumanErrors++
			missing = 2

		default:
			// Exposed-2 (up, critical): repair races a third loss.
			dt := r.ExpFloat64() * k.e2.inv
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
			if !hep.hit(r, sc.hep) {
				missing = 1 // one member repaired
				continue
			}
			// Wrong pull with two members already missing: the third
			// inaccessible member makes the data unavailable.
			st.events.HumanErrors++
			duStart := t
			for {
				dt := r.ExpFloat64() * k.du.inv
				if t+dt >= mission {
					st.downDU += mission - duStart
					return st
				}
				t += dt
				u := r.Float64() * k.du.tot
				if u < k.du.cutU {
					st.logW += k.du.lnQuiet
					st.events.UndoAttempts++
					if hep.hit(r, sc.hep) {
						st.events.HumanErrors++
						continue
					}
					// Undo succeeded; per the analytic chain the array
					// returns to exposed-2, unless the resync policy
					// restores everything.
					if p.ResyncAfterUndo {
						end := t + r.ExpFloat64()*k.invTape
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
