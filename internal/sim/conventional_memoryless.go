package sim

import "math"

// This file is the memoryless specialization of the conventional
// walker. When every law is exponential the array process is a CTMC —
// the equivalence the paper itself leans on to validate the simulator
// (§V-A) — so the walker needs no per-disk failure clocks: in each
// state the holding time is one Exp(total-rate) draw (min of k iid
// Exp(lambda) is Exp(k*lambda)) and the winning transition is chosen
// with probability proportional to its rate. Disk identities are
// irrelevant: exponential members are exchangeable and, by
// memorylessness, a survivor's residual lifetime never depends on its
// age, so the state collapses to how many members are failed or
// pulled. The generic clock walker (conventional.go) remains the
// reference this kernel is validated against, both statistically and
// against the internal/markov closed forms.
//
// One second-order refinement of the clock walkers is deliberately
// not carried over: their surviving members keep aging through
// tape-restore and resync outages (an expired clock fires the moment
// the restore ends), whereas the rate-based kernels — like the
// paper's chains, whose DL state has the single transition
// DL --muDDF--> OP — restart the failure race fresh after an outage.
// The difference is of order lambda x restore-time per data loss
// (~1e-4 relative at the equivalence tests' inflated rates, far less
// at paper rates) and sits well inside the CI-overlap tolerances
// TestMemorylessMatchesGenericCIOverlap pins.

// convMemK holds the conventional kernel's state constants: the
// all-up hold, the exposed race (replacement service against a second
// failure), the DU race (undo and crash of the pulled disk against a
// further failure) and the tape-restore hold.
type convMemK struct {
	invOP   float64 // 1/(n*lambda): all members up
	exp, du race
	invTape float64
	// cycleRate, 1/(mean benign cycle), sizes aggregation chunks; 0
	// disables them (noBatch, or an infinite first hold).
	cycleRate float64
}

func makeConvMemK(p *ArrayParams, m memRates, bias float64, noBatch bool) convMemK {
	n := float64(p.Disks)
	k := convMemK{
		invOP:   inv(n * m.lambda),
		exp:     newRace(m.muDF, 0, n-1, m.lambda, bias),
		du:      newRace(m.muHE, p.CrashRate, n-2, m.lambda, bias),
		invTape: inv(m.muDDF),
	}
	if !noBatch && k.invOP > 0 {
		k.cycleRate = 1 / (k.invOP + k.exp.inv)
	}
	return k
}

// conventionalMemoryless walks one lifetime of the conventional
// policy's CTMC. The state structure mirrors conventional.go — the
// same events are counted at the same transitions, with the same
// downtime accounting and mission-end censoring — up to the
// aging-through-outages refinement noted above; only the sampling is
// rate-based.
func (sc *scratch) conventionalMemoryless(mission float64) iterStats {
	k, r, p := &sc.convK, &sc.src, sc.p
	var st iterStats
	t := 0.0
	// Both rare outcomes of the hot OK->EXPOSED->repaired cycle are
	// skip-sampled: exp counts the repair-wins remaining before a
	// second failure beats the service, and hep the error-free
	// services before the next human error. The counters are drawn
	// lazily, so a benign cycle costs two exponential draws and two
	// decrements; both die with the iteration, keeping iterations
	// independent.
	var exp, hep gap

	// min(exp, hep) cycles are known to be quiet — one failure, one
	// clean repair, nothing else. When they cover the failures the
	// mission expects, quietMission resolves the lifetime's start in
	// O(1): the whole lifetime when it stays quiet, or up to its first
	// eventful cycle, whose exposed phase the walk then takes over.
	exposed := false
	if k.cycleRate > 0 {
		exp.fill(r, k.exp.fail)
		hep.fill(r, sc.hep)
		if m := min(exp.n, hep.n); sc.quietRuns(m) {
			if t, exposed = sc.quietMission(&st, m, []float64{k.exp.inv}, []float64{k.exp.lnQuiet}); !exposed {
				return st
			}
			exp.n -= m
			hep.n -= m
		}
	}

	for t < mission {
		if !exposed {
			// Benign-cycle aggregation: the quiet cycles' elapsed time
			// collapses to two Erlang draws per chunk (the sum of c
			// iid holds per phase) instead of 2c exponentials.
			if k.cycleRate > 0 {
				exp.fill(r, k.exp.fail)
				hep.fill(r, sc.hep)
				for {
					c := quietChunk((mission-t)*k.cycleRate, exp.n, hep.n, math.MaxInt)
					if c == 0 {
						break
					}
					opSum := sc.erlangChunk(c, k.invOP)
					exSum := sc.erlangChunk(c, k.exp.inv)
					if t+opSum+exSum >= mission {
						sc.resolveChunk(&st, t, mission, c, []float64{opSum, exSum}, []float64{0, k.exp.lnQuiet})
						return st
					}
					t += opSum + exSum
					st.events.Failures += int64(c)
					st.logW += float64(c) * k.exp.lnQuiet
					exp.n -= c
					hep.n -= c
				}
			}

			// All members up; hold for the first failure.
			t += r.ExpFloat64() * k.invOP
			if t >= mission {
				return st
			}
			st.events.Failures++
		}
		exposed = false

		// Quiet tail: the chunk loop stopped because the expected
		// cycles remaining shrank below aggMin or a counter is about
		// to fire, so walk cycles individually. Elapsed time only
		// grows and the counters only decrement, so re-sizing a chunk
		// is pointless until an event (or a censored counter running
		// out) resets a skip counter — those paths break back to the
		// outer loop; plain quiet cycles stay in this inner loop, off
		// the chunk-sizing arithmetic.
		for {
			// Exposed: replacement service races a second member failure.
			dt := r.ExpFloat64() * k.exp.inv
			if t+dt >= mission {
				return st // exposed is up; mission ends first
			}
			t += dt
			redrawn := exp.spent() || hep.spent()
			if exp.hit(r, k.exp.fail) {
				// Double disk failure: data loss, restore from backup.
				st.events.Failures++
				st.events.DoubleFailures++
				st.logW += k.exp.lnFail
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				break
			}
			st.logW += k.exp.lnQuiet
			if !hep.hit(r, sc.hep) {
				// Correct replacement; the array is whole again.
				if redrawn {
					break // fresh counter: aggregation may pay again
				}
				t += r.ExpFloat64() * k.invOP
				if t >= mission {
					return st
				}
				st.events.Failures++
				continue
			}

			// Wrong disk replacement: unavailable until the error is
			// undone; meanwhile the pulled disk may crash and the n-2
			// untouched members may fail.
			st.events.HumanErrors++
			duStart := t
			for {
				dt := r.ExpFloat64() * k.du.inv
				if t+dt >= mission {
					st.downDU += mission - duStart
					t = mission
					break
				}
				t += dt
				u := r.Float64() * k.du.tot
				if u < k.du.cutU {
					st.logW += k.du.lnQuiet
					st.events.UndoAttempts++
					if hep.hit(r, sc.hep) {
						// The undo itself went wrong; array stays DU.
						st.events.HumanErrors++
						continue
					}
					// Error undone; optionally restore consistency from
					// backup before coming back up.
					end := t
					if p.ResyncAfterUndo {
						end += r.ExpFloat64() * k.invTape
					}
					st.downDU += math.Min(end, mission) - duStart
					t = end
					break
				}
				st.downDU += t - duStart
				if u < k.du.cutC {
					// The wrongly removed disk crashed while out.
					st.logW += k.du.lnQuiet
					st.events.Crashes++
				} else {
					// A further member failed while unavailable.
					st.logW += k.du.lnFail
					st.events.Failures++
					st.events.DoubleFailures++
				}
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				break
			}
			break
		}
	}
	return st
}

// memDataLoss accounts a data-loss interval starting at start under
// the memoryless kernels: one tape-restore holding time, downtime
// clipped at mission end. No member state survives the outage — the
// failure race restarts fresh at the restore end, the CTMC's
// DL --muDDF--> OP semantics (see the file comment for how this
// differs, in the second order, from the clock walkers' dataLoss).
func (sc *scratch) memDataLoss(st *iterStats, start, mission, invTape float64) float64 {
	end := start + sc.src.ExpFloat64()*invTape
	st.downDL += math.Min(end, mission) - start
	return end
}
