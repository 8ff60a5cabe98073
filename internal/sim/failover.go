package sim

// foPhase enumerates the automatic fail-over state machine phases,
// mirroring the paper's Fig. 3 states (the with-spare unavailable
// variants DU1/DU2/EXP2 arise there only through service branches the
// simulator's single-technician discipline does not take; see
// model.FailoverParams.InstallAsSpare and DownAltService).
type foPhase int

const (
	phOP     foPhase = iota // n members up, hot spare present
	phEXP1                  // 1 failed, on-line rebuild onto spare
	phOPns                  // n members up, spare slot empty
	phEXPns1                // 1 failed, no spare
	phEXPns2                // healthy member wrongly pulled, no spare (up, degraded)
	phDUns1                 // 1 failed + 1 pulled: unavailable
	phDUns2                 // 2 pulled: unavailable
)

// failover walks one array lifetime under the automatic
// fail-over (delayed replacement) policy: the hot spare absorbs a
// failure with no human involvement; the technician only touches the
// array to replenish the spare (OPns) or when no spare is left
// (EXPns1), which is where human error opportunities live.
//
// The up-phases (OP, EXP1, OPns, EXPns1, EXPns2) exclude at most one
// disk from their next-failure query, so they share one cached
// two-min scan (cachedNextFailure) that survives phase transitions
// and is recomputed only after a clock actually changes — the DU
// phases, which exclude two disks, keep the direct scans.
func (sc *scratch) failover(mission float64) iterStats {
	p, r := sc.p, &sc.src
	n := p.Disks
	fail := sc.fail
	for i := range fail {
		fail[i] = p.TTF.Sample(r)
	}
	var st iterStats
	var hep gap // the human-error trials' skip counter
	t := 0.0
	phase := phOP
	fi := noDisk // failed member slot
	pi := noDisk // wrongly pulled member slot
	pi2 := noDisk

	for t < mission {
		switch phase {
		case phOP:
			// Phase-fused benign cycle: OP -> EXP1 -> OPns -> OP is by
			// far the dominant path, so it runs in one loop with no
			// phase dispatch between its stages; any branch off the
			// benign path sets the phase and falls back to the
			// dispatcher. Minima are explicit comparisons throughout
			// the walker: math.Min is a function call (not an
			// intrinsic here) and its NaN/±0 handling buys nothing for
			// event times.
			for {
				idx, tFail := sc.cachedNextFailure(t, noDisk)
				if tFail >= mission {
					return st
				}
				st.events.Failures++
				fi, t = idx, tFail

				// EXP1: on-line rebuild onto the hot spare; no human
				// involved.
				rebEnd := t + p.SpareRebuild.Sample(r)
				si, tSecond := sc.cachedNextFailure(t, fi)
				if rebEnd >= mission && tSecond >= mission {
					return st // exposed but up
				}
				if tSecond < rebEnd {
					st.events.Failures++
					st.events.DoubleFailures++
					t = sc.dataLoss(&st, tSecond, mission, fi, si)
					// Restore rebuilds the full configuration, spare
					// included (Fig. 3: DL --muDDF--> OP); the cycle
					// restarts fused.
					fi = noDisk
					continue
				}
				// Spare now carries the failed member's data.
				fail[fi] = rebEnd + p.TTF.Sample(r)
				sc.clocksChanged()
				fi, t = noDisk, rebEnd

				// OPns: technician replenishes the spare slot; a wrong
				// pull here hits a fully redundant array (degraded,
				// still up).
				swapEnd := t + p.SpareSwap.Sample(r)
				idx, tFail = sc.cachedNextFailure(t, noDisk)
				if swapEnd >= mission && tFail >= mission {
					return st
				}
				if tFail < swapEnd {
					st.events.Failures++
					fi, t, phase = idx, tFail, phEXPns1
					break
				}
				t = swapEnd
				if !hep.hit(r, sc.hep) {
					continue // spare slot replenished: benign cycle done
				}
				st.events.HumanErrors++
				pi = pickOther(r, n, noDisk, noDisk)
				phase = phEXPns2
				break
			}

		case phOPns:
			// Mid-cycle entry only (after a restore or a no-spare
			// service completion): one swap step, then the benign
			// cycle re-enters the fused phOP loop.
			swapEnd := t + p.SpareSwap.Sample(r)
			idx, tFail := sc.cachedNextFailure(t, noDisk)
			if swapEnd >= mission && tFail >= mission {
				return st
			}
			if tFail < swapEnd {
				st.events.Failures++
				fi, t, phase = idx, tFail, phEXPns1
				continue
			}
			t = swapEnd
			if !hep.hit(r, sc.hep) {
				phase = phOP // spare slot replenished
				continue
			}
			st.events.HumanErrors++
			pi = pickOther(r, n, noDisk, noDisk)
			phase = phEXPns2

		case phEXPns1:
			// Exposed with no spare: direct replace-and-rebuild
			// service, racing a second member failure.
			svcEnd := t + p.Repair.Sample(r)
			si, tSecond := sc.cachedNextFailure(t, fi)
			if svcEnd >= mission && tSecond >= mission {
				return st
			}
			if tSecond < svcEnd {
				st.events.Failures++
				st.events.DoubleFailures++
				t = sc.dataLoss(&st, tSecond, mission, fi, si)
				fi, phase = noDisk, phOPns // DLns --muDDF--> OPns
				continue
			}
			t = svcEnd
			if !hep.hit(r, sc.hep) {
				fail[fi] = t + p.TTF.Sample(r)
				sc.clocksChanged()
				fi, phase = noDisk, phOPns
				continue
			}
			st.events.HumanErrors++
			pi = pickOther(r, n, fi, noDisk)
			phase = phDUns1

		case phEXPns2:
			// A healthy member is out; data still available (n-1 of n).
			attemptEnd := t + p.HERecovery.Sample(r)
			crashAt := t + expInv(r, sc.crashInv)
			idx, tFail := sc.cachedNextFailure(t, pi)
			next := attemptEnd
			if crashAt < next {
				next = crashAt
			}
			if tFail < next {
				next = tFail
			}
			if next >= mission {
				return st
			}
			switch next {
			case tFail:
				// Failure on top of the pull: unavailable.
				st.events.Failures++
				fi, t, phase = idx, tFail, phDUns1
			case crashAt:
				// Pulled disk died while out: it is now simply a
				// failed member with no spare.
				st.events.Crashes++
				fail[pi] = crashAt // expired clock; treated as failed
				sc.clocksChanged()
				fi, pi, t, phase = pi, noDisk, crashAt, phEXPns1
			default:
				st.events.UndoAttempts++
				t = attemptEnd
				if hep.hit(r, sc.hep) {
					// Second error pulls another healthy member.
					st.events.HumanErrors++
					pi2 = pickOther(r, n, pi, noDisk)
					phase = phDUns2
					continue
				}
				// Re-seat; the new disk becomes the hot spare
				// (Fig. 3: EXPns2 --(1-hep)muHE--> OP).
				pi, phase = noDisk, phOP
			}

		case phDUns1:
			// One failed + one pulled: unavailable until undone.
			duStart := t
			cur := t
			for phase == phDUns1 {
				attemptEnd := cur + p.HERecovery.Sample(r)
				crashAt := cur + expInv(r, sc.crashInv)
				oi, tOther := nextFailure(fail, cur, fi, pi)
				next := attemptEnd
				if crashAt < next {
					next = crashAt
				}
				if tOther < next {
					next = tOther
				}
				if next >= mission {
					st.downDU += mission - duStart
					return st
				}
				switch next {
				case tOther:
					// Third member lost: catastrophic, restore all.
					st.events.Failures++
					st.events.DoubleFailures++
					st.downDU += tOther - duStart
					t = sc.dataLoss(&st, tOther, mission, fi, oi)
					fail[pi] = t + p.TTF.Sample(r) // re-seated fresh by the restore service
					sc.clocksChanged()
					fi, pi, phase = noDisk, noDisk, phOPns
				case crashAt:
					// Pulled disk crashed: double loss, restore.
					st.events.Crashes++
					st.downDU += crashAt - duStart
					t = sc.dataLoss(&st, crashAt, mission, fi, pi)
					fi, pi, phase = noDisk, noDisk, phOPns
				default:
					st.events.UndoAttempts++
					if hep.hit(r, sc.hep) {
						st.events.HumanErrors++
						cur = attemptEnd
						continue
					}
					// Pulled disk re-seated; failed member remains.
					st.downDU += attemptEnd - duStart
					t, pi, phase = attemptEnd, noDisk, phEXPns1
				}
			}

		case phDUns2:
			// Two healthy members pulled (double human error).
			duStart := t
			cur := t
			for phase == phDUns2 {
				attemptEnd := cur + p.HERecovery.Sample(r)
				crashAt := cur + expInv(r, sc.crash2Inv)
				oi, tOther := nextFailure(fail, cur, pi, pi2)
				next := attemptEnd
				if crashAt < next {
					next = crashAt
				}
				if tOther < next {
					next = tOther
				}
				if next >= mission {
					st.downDU += mission - duStart
					return st
				}
				switch next {
				case tOther:
					// Failure with two members out: catastrophic.
					st.events.Failures++
					st.events.DoubleFailures++
					st.downDU += tOther - duStart
					t = sc.dataLoss(&st, tOther, mission, oi, pi)
					fail[pi2] = t + p.TTF.Sample(r)
					sc.clocksChanged()
					fi, pi, pi2, phase = noDisk, noDisk, noDisk, phOPns
				case crashAt:
					// One of the two pulled disks crashed.
					st.events.Crashes++
					st.downDU += crashAt - duStart
					fail[pi2] = crashAt
					sc.clocksChanged()
					fi, pi2 = pi2, noDisk
					t, phase = crashAt, phDUns1
				default:
					st.events.UndoAttempts++
					if hep.hit(r, sc.hep) {
						st.events.HumanErrors++
						cur = attemptEnd
						continue
					}
					// One pull undone; still one member out (up again).
					st.downDU += attemptEnd - duStart
					t, pi2, phase = attemptEnd, noDisk, phEXPns2
				}
			}
		}
	}
	return st
}
