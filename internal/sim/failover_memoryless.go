package sim

// foMemK holds the fail-over memoryless kernel's per-phase constants:
// one race per phase of the Fig. 3 machine past OP. Phase semantics
// mirror failover.go; disk identity is collapsed to counts (one failed
// member, one or two pulled members) by exchangeability and
// memorylessness. lnQuietCycle is the benign cycle's combined quiet
// weight (EXP1 then OPns) and cycleRate its chunk rate (as in
// convMemK), both precomputed for the chunk loop.
type foMemK struct {
	invOP float64 // 1/(n*lambda): wait for the first failure

	exp1   race // rebuild onto the spare vs a second failure
	opns   race // spare swap vs a failure
	expns1 race // direct service (no spare) vs a second failure
	expns2 race // a healthy member pulled, still up
	du1    race // one failed and one pulled: unavailable
	du2    race // two pulled: unavailable

	invTape      float64
	lnQuietCycle float64
	cycleRate    float64
}

func makeFoMemK(p *ArrayParams, m memRates, bias float64, noBatch bool) foMemK {
	n := float64(p.Disks)
	crash := p.CrashRate
	k := foMemK{
		invOP:   inv(n * m.lambda),
		exp1:    newRace(m.muS, 0, n-1, m.lambda, bias),
		opns:    newRace(m.muCH, 0, n, m.lambda, bias),
		expns1:  newRace(m.muDF, 0, n-1, m.lambda, bias),
		expns2:  newRace(m.muHE, crash, n-1, m.lambda, bias),
		du1:     newRace(m.muHE, crash, n-2, m.lambda, bias),
		du2:     newRace(m.muHE, 2*crash, n-2, m.lambda, bias),
		invTape: inv(m.muDDF),
	}
	k.lnQuietCycle = k.exp1.lnQuiet + k.opns.lnQuiet
	if !noBatch && k.invOP > 0 {
		k.cycleRate = 1 / (k.invOP + k.exp1.inv + k.opns.inv)
	}
	return k
}

// failoverMemoryless walks one lifetime of the automatic fail-over
// policy's CTMC. Phase-for-phase it mirrors failover.go — the same
// transitions count the same events and open/close the same downtime
// intervals, up to the aging-through-outages refinement documented in
// conventional_memoryless.go — but each phase is one rate-based
// holding-time draw plus one winner draw, with no clock array, no
// scans and no re-scans.
//
// The benign OP -> EXP1 -> OPns -> OP cycle (failure, clean rebuild
// onto the spare, clean swap) dominates a lifetime. Its two race
// outcomes are skip-sampled like the conventional walker's (exp1:
// rebuild loses to a second failure; opns: swap loses to a failure),
// and min(exp1, opns, hep) quiet cycles are aggregated into
// three-Erlang chunks (see conventionalMemoryless).
func (sc *scratch) failoverMemoryless(mission float64) iterStats {
	k, r := &sc.foK, &sc.src
	var st iterStats
	t := 0.0
	phase := phOP
	duStart := 0.0 // opening time of the active DU interval
	var exp1, opns, hep gap

	// The quiet-mission path (see conventionalMemoryless) resolves a
	// lifetime quiet to its end, or hands the walk failure m+1 in
	// EXP1.
	if k.cycleRate > 0 {
		exp1.fill(r, k.exp1.fail)
		opns.fill(r, k.opns.fail)
		hep.fill(r, sc.hep)
		if m := min(exp1.n, opns.n, hep.n); sc.quietRuns(m) {
			var jumped bool
			if t, jumped = sc.quietMission(&st, m, []float64{k.exp1.inv, k.opns.inv}, []float64{k.exp1.lnQuiet, k.opns.lnQuiet}); !jumped {
				return st
			}
			exp1.n -= m
			opns.n -= m
			hep.n -= m
			phase = phEXP1
		}
	}

	for t < mission {
		switch phase {
		case phOP:
			if k.cycleRate > 0 {
				exp1.fill(r, k.exp1.fail)
				opns.fill(r, k.opns.fail)
				hep.fill(r, sc.hep)
				for {
					c := quietChunk((mission-t)*k.cycleRate, exp1.n, opns.n, hep.n)
					if c == 0 {
						break
					}
					opSum := sc.erlangChunk(c, k.invOP)
					exSum := sc.erlangChunk(c, k.exp1.inv)
					nsSum := sc.erlangChunk(c, k.opns.inv)
					if t+opSum+exSum+nsSum >= mission {
						sc.resolveChunk(&st, t, mission, c, []float64{opSum, exSum, nsSum}, []float64{0, k.exp1.lnQuiet, k.opns.lnQuiet})
						return st
					}
					t += opSum + exSum + nsSum
					st.events.Failures += int64(c)
					st.logW += float64(c) * k.lnQuietCycle
					exp1.n -= c
					opns.n -= c
					hep.n -= c
				}
			}
			// n members up, hot spare present.
			t += r.ExpFloat64() * k.invOP
			if t >= mission {
				return st
			}
			st.events.Failures++
			phase = phEXP1

		case phEXP1:
			// On-line rebuild onto the hot spare; no human involved.
			dt := r.ExpFloat64() * k.exp1.inv
			if t+dt >= mission {
				return st // exposed but up
			}
			t += dt
			if exp1.hit(r, k.exp1.fail) {
				st.events.Failures++
				st.events.DoubleFailures++
				st.logW += k.exp1.lnFail
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				// Restore rebuilds the full configuration, spare
				// included (Fig. 3: DL --muDDF--> OP).
				phase = phOP
				continue
			}
			st.logW += k.exp1.lnQuiet
			phase = phOPns // spare now carries the data

		case phOPns:
			// Technician replenishes the spare slot; a wrong pull here
			// hits a fully redundant array (degraded, still up).
			dt := r.ExpFloat64() * k.opns.inv
			if t+dt >= mission {
				return st
			}
			t += dt
			if opns.hit(r, k.opns.fail) {
				st.events.Failures++
				st.logW += k.opns.lnFail
				phase = phEXPns1
				continue
			}
			st.logW += k.opns.lnQuiet
			if !hep.hit(r, sc.hep) {
				phase = phOP // spare slot replenished
				continue
			}
			st.events.HumanErrors++
			phase = phEXPns2

		case phEXPns1:
			// Exposed with no spare: direct replace-and-rebuild
			// service, racing a second member failure.
			dt := r.ExpFloat64() * k.expns1.inv
			if t+dt >= mission {
				return st
			}
			t += dt
			if r.Float64()*k.expns1.tot < k.expns1.cutF {
				st.events.Failures++
				st.events.DoubleFailures++
				st.logW += k.expns1.lnFail
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns // DLns --muDDF--> OPns
				continue
			}
			st.logW += k.expns1.lnQuiet
			if !hep.hit(r, sc.hep) {
				phase = phOPns
				continue
			}
			st.events.HumanErrors++
			duStart = t
			phase = phDUns1

		case phEXPns2:
			// A healthy member is out; data still available (n-1 of n).
			dt := r.ExpFloat64() * k.expns2.inv
			if t+dt >= mission {
				return st
			}
			t += dt
			u := r.Float64() * k.expns2.tot
			switch {
			case u < k.expns2.cutU:
				st.logW += k.expns2.lnQuiet
				st.events.UndoAttempts++
				if hep.hit(r, sc.hep) {
					// Second error pulls another healthy member.
					st.events.HumanErrors++
					duStart = t
					phase = phDUns2
					continue
				}
				// Re-seat; the new disk becomes the hot spare
				// (Fig. 3: EXPns2 --(1-hep)muHE--> OP).
				phase = phOP
			case u < k.expns2.cutC:
				// Pulled disk died while out: it is now simply a
				// failed member with no spare.
				st.logW += k.expns2.lnQuiet
				st.events.Crashes++
				phase = phEXPns1
			default:
				// Failure on top of the pull: unavailable.
				st.logW += k.expns2.lnFail
				st.events.Failures++
				duStart = t
				phase = phDUns1
			}

		case phDUns1:
			// One failed + one pulled: unavailable until undone.
			dt := r.ExpFloat64() * k.du1.inv
			if t+dt >= mission {
				st.downDU += mission - duStart
				return st
			}
			t += dt
			u := r.Float64() * k.du1.tot
			switch {
			case u < k.du1.cutU:
				st.logW += k.du1.lnQuiet
				st.events.UndoAttempts++
				if hep.hit(r, sc.hep) {
					st.events.HumanErrors++
					continue // undo failed; array stays DU
				}
				// Pulled disk re-seated; failed member remains.
				st.downDU += t - duStart
				phase = phEXPns1
			case u < k.du1.cutC:
				// Pulled disk crashed: double loss, restore.
				st.logW += k.du1.lnQuiet
				st.events.Crashes++
				st.downDU += t - duStart
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns
			default:
				// Third member lost: catastrophic, restore all.
				st.logW += k.du1.lnFail
				st.events.Failures++
				st.events.DoubleFailures++
				st.downDU += t - duStart
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns
			}

		case phDUns2:
			// Two healthy members pulled (double human error).
			dt := r.ExpFloat64() * k.du2.inv
			if t+dt >= mission {
				st.downDU += mission - duStart
				return st
			}
			t += dt
			u := r.Float64() * k.du2.tot
			switch {
			case u < k.du2.cutU:
				st.logW += k.du2.lnQuiet
				st.events.UndoAttempts++
				if hep.hit(r, sc.hep) {
					st.events.HumanErrors++
					continue
				}
				// One pull undone; still one member out (up again).
				st.downDU += t - duStart
				phase = phEXPns2
			case u < k.du2.cutC:
				// One of the two pulled disks crashed; it becomes the
				// failed member of a still-unavailable DUns1.
				st.logW += k.du2.lnQuiet
				st.events.Crashes++
				st.downDU += t - duStart
				duStart = t
				phase = phDUns1
			default:
				// Failure with two members out: catastrophic.
				st.logW += k.du2.lnFail
				st.events.Failures++
				st.events.DoubleFailures++
				st.downDU += t - duStart
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns
			}
		}
	}
	return st
}
