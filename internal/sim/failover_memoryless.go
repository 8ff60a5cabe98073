package sim

import "math"

// foMemK holds the fail-over memoryless kernel's per-phase constants:
// for each phase of the Fig. 3 machine, the inverse total exit rate
// and the unnormalized cut points of its competing risks. Phase
// semantics mirror failover.go; disk identity is collapsed to counts
// (one failed member, one or two pulled members) by exchangeability
// and memorylessness.
type foMemK struct {
	invOP float64 // n*lambda: wait for the first failure

	totEXP1  float64 // muS + (n-1)*lambda: rebuild-to-spare vs failure
	invEXP1  float64
	cutEXP1  float64 // failure share
	gap1Inv  float64 // geomInv of the failure-beats-rebuild probability
	gap1QCap float64 // its censoring threshold

	totOPns  float64 // muCH + n*lambda: spare swap vs failure
	invOPns  float64
	cutOPns  float64 // failure share
	gap2Inv  float64 // geomInv of the failure-beats-swap probability
	gap2QCap float64 // its censoring threshold

	totEXPns1 float64 // muDF + (n-1)*lambda: direct service vs failure
	invEXPns1 float64
	cutEXPns1 float64 // failure share

	totEXPns2  float64 // muHE + crash + (n-1)*lambda: healthy pull, up
	invEXPns2  float64
	cutUEXPns2 float64 // undo share
	cutCEXPns2 float64 // + crash share

	totDU1  float64 // muHE + crash + (n-2)*lambda: failed + pulled
	invDU1  float64
	cutUDU1 float64
	cutCDU1 float64

	totDU2  float64 // muHE + 2*crash + (n-2)*lambda: two pulled
	invDU2  float64
	cutUDU2 float64
	cutCDU2 float64

	invTape float64

	// Importance-sampling log-weight constants, one quiet/fail pair per
	// biased race (see convMemK): the tot*/cut* fields above hold the
	// bias-inflated winner normalizers while the inv* fields keep the
	// nominal holding rates. lnQuietCycle is the benign cycle's combined
	// quiet weight (EXP1 + OPns), precomputed for the chunk loop. All 0
	// when the bias factor is 1.
	lnQuietEXP1   float64
	lnFailEXP1    float64
	lnQuietOPns   float64
	lnFailOPns    float64
	lnQuietEXPns1 float64
	lnFailEXPns1  float64
	lnQuietEXPns2 float64
	lnFailEXPns2  float64
	lnQuietDU1    float64
	lnFailDU1     float64
	lnQuietDU2    float64
	lnFailDU2     float64
	lnQuietCycle  float64
}

func makeFoMemK(p *ArrayParams, m memRates, bias float64) foMemK {
	n := float64(p.Disks)
	crash := p.CrashRate
	var k foMemK
	k.invOP = inv(n * m.lambda)

	totEXP1 := m.muS + (n-1)*m.lambda
	k.totEXP1 = m.muS + bias*(n-1)*m.lambda
	k.invEXP1 = inv(totEXP1)
	k.cutEXP1 = bias * (n - 1) * m.lambda
	p1 := k.cutEXP1 * inv(k.totEXP1)
	k.gap1Inv = geomInv(p1)
	k.gap1QCap = geomQCap(p1)

	totOPns := m.muCH + n*m.lambda
	k.totOPns = m.muCH + bias*n*m.lambda
	k.invOPns = inv(totOPns)
	k.cutOPns = bias * n * m.lambda
	p2 := k.cutOPns * inv(k.totOPns)
	k.gap2Inv = geomInv(p2)
	k.gap2QCap = geomQCap(p2)

	totEXPns1 := m.muDF + (n-1)*m.lambda
	k.totEXPns1 = m.muDF + bias*(n-1)*m.lambda
	k.invEXPns1 = inv(totEXPns1)
	k.cutEXPns1 = bias * (n - 1) * m.lambda

	totEXPns2 := m.muHE + crash + (n-1)*m.lambda
	k.totEXPns2 = m.muHE + crash + bias*(n-1)*m.lambda
	k.invEXPns2 = inv(totEXPns2)
	k.cutUEXPns2 = m.muHE
	k.cutCEXPns2 = m.muHE + crash

	totDU1 := m.muHE + crash + (n-2)*m.lambda
	k.totDU1 = m.muHE + crash + bias*(n-2)*m.lambda
	k.invDU1 = inv(totDU1)
	k.cutUDU1 = m.muHE
	k.cutCDU1 = m.muHE + crash

	totDU2 := m.muHE + 2*crash + (n-2)*m.lambda
	k.totDU2 = m.muHE + 2*crash + bias*(n-2)*m.lambda
	k.invDU2 = inv(totDU2)
	k.cutUDU2 = m.muHE
	k.cutCDU2 = m.muHE + 2*crash

	k.invTape = inv(m.muDDF)

	if bias > 1 {
		lnB := math.Log(bias)
		lnPair := func(biased, nominal float64) (quiet, fail float64) {
			if nominal <= 0 {
				return 0, 0
			}
			quiet = math.Log(biased / nominal)
			return quiet, quiet - lnB
		}
		k.lnQuietEXP1, k.lnFailEXP1 = lnPair(k.totEXP1, totEXP1)
		k.lnQuietOPns, k.lnFailOPns = lnPair(k.totOPns, totOPns)
		k.lnQuietEXPns1, k.lnFailEXPns1 = lnPair(k.totEXPns1, totEXPns1)
		k.lnQuietEXPns2, k.lnFailEXPns2 = lnPair(k.totEXPns2, totEXPns2)
		k.lnQuietDU1, k.lnFailDU1 = lnPair(k.totDU1, totDU1)
		k.lnQuietDU2, k.lnFailDU2 = lnPair(k.totDU2, totDU2)
		k.lnQuietCycle = k.lnQuietEXP1 + k.lnQuietOPns
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
// outcomes are skip-sampled like the conventional walker's (gap1:
// rebuild loses to a second failure; gap2: swap loses to a failure),
// and min(gap1, gap2, hepGap) quiet cycles are aggregated into
// three-Erlang chunks (see conventionalMemoryless).
func (sc *scratch) failoverMemoryless(mission float64) iterStats {
	k, r := &sc.foK, &sc.src
	var st iterStats
	t := 0.0
	phase := phOP
	duStart := 0.0 // opening time of the active DU interval
	gap1, gap2 := -1, -1
	exact1, exact2 := false, false

	cycleRate := 0.0
	if !sc.noBatch && k.invOP > 0 {
		cycleRate = 1 / (k.invOP + k.invEXP1 + k.invOPns)
	}

	for t < mission {
		switch phase {
		case phOP:
			if cycleRate > 0 {
				if gap1 < 0 || (gap1 == 0 && !exact1) {
					gap1, exact1 = drawGeomGap(r, k.gap1Inv, k.gap1QCap)
				}
				if gap2 < 0 || (gap2 == 0 && !exact2) {
					gap2, exact2 = drawGeomGap(r, k.gap2Inv, k.gap2QCap)
				}
				if sc.hepGap < 0 || (sc.hepGap == 0 && !sc.hepExact) {
					sc.drawHEPGap(r)
				}
				for {
					c := quietChunk((mission-t)*cycleRate, gap1, gap2, sc.hepGap)
					if c == 0 {
						break
					}
					opSum := sc.erlangChunk(c, k.invOP)
					exSum := sc.erlangChunk(c, k.invEXP1)
					nsSum := sc.erlangChunk(c, k.invOPns)
					if t+opSum+exSum+nsSum >= mission {
						sc.resolveChunk3(&st, t, mission, c, opSum, exSum, nsSum, k.lnQuietEXP1, k.lnQuietOPns)
						return st
					}
					t += opSum + exSum + nsSum
					st.events.Failures += int64(c)
					st.logW += float64(c) * k.lnQuietCycle
					gap1 -= c
					gap2 -= c
					sc.hepGap -= c
				}
			}
			// n members up, hot spare present.
			t += sc.expNext() * k.invOP
			if t >= mission {
				return st
			}
			st.events.Failures++
			phase = phEXP1

		case phEXP1:
			// On-line rebuild onto the hot spare; no human involved.
			dt := sc.expNext() * k.invEXP1
			if t+dt >= mission {
				return st // exposed but up
			}
			t += dt
			if gap1 < 0 || (gap1 == 0 && !exact1) {
				gap1, exact1 = drawGeomGap(r, k.gap1Inv, k.gap1QCap)
			}
			if gap1 == 0 {
				gap1 = -1
				st.events.Failures++
				st.events.DoubleFailures++
				st.logW += k.lnFailEXP1
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				// Restore rebuilds the full configuration, spare
				// included (Fig. 3: DL --muDDF--> OP).
				phase = phOP
				continue
			}
			gap1--
			st.logW += k.lnQuietEXP1
			phase = phOPns // spare now carries the data

		case phOPns:
			// Technician replenishes the spare slot; a wrong pull here
			// hits a fully redundant array (degraded, still up).
			dt := sc.expNext() * k.invOPns
			if t+dt >= mission {
				return st
			}
			t += dt
			if gap2 < 0 || (gap2 == 0 && !exact2) {
				gap2, exact2 = drawGeomGap(r, k.gap2Inv, k.gap2QCap)
			}
			if gap2 == 0 {
				gap2 = -1
				st.events.Failures++
				st.logW += k.lnFailOPns
				phase = phEXPns1
				continue
			}
			gap2--
			st.logW += k.lnQuietOPns
			if !sc.hepTrial(r) {
				phase = phOP // spare slot replenished
				continue
			}
			st.events.HumanErrors++
			phase = phEXPns2

		case phEXPns1:
			// Exposed with no spare: direct replace-and-rebuild
			// service, racing a second member failure.
			dt := sc.expNext() * k.invEXPns1
			if t+dt >= mission {
				return st
			}
			t += dt
			if r.Float64()*k.totEXPns1 < k.cutEXPns1 {
				st.events.Failures++
				st.events.DoubleFailures++
				st.logW += k.lnFailEXPns1
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns // DLns --muDDF--> OPns
				continue
			}
			st.logW += k.lnQuietEXPns1
			if !sc.hepTrial(r) {
				phase = phOPns
				continue
			}
			st.events.HumanErrors++
			duStart = t
			phase = phDUns1

		case phEXPns2:
			// A healthy member is out; data still available (n-1 of n).
			dt := sc.expNext() * k.invEXPns2
			if t+dt >= mission {
				return st
			}
			t += dt
			u := r.Float64() * k.totEXPns2
			switch {
			case u < k.cutUEXPns2:
				st.logW += k.lnQuietEXPns2
				st.events.UndoAttempts++
				if sc.hepTrial(r) {
					// Second error pulls another healthy member.
					st.events.HumanErrors++
					duStart = t
					phase = phDUns2
					continue
				}
				// Re-seat; the new disk becomes the hot spare
				// (Fig. 3: EXPns2 --(1-hep)muHE--> OP).
				phase = phOP
			case u < k.cutCEXPns2:
				// Pulled disk died while out: it is now simply a
				// failed member with no spare.
				st.logW += k.lnQuietEXPns2
				st.events.Crashes++
				phase = phEXPns1
			default:
				// Failure on top of the pull: unavailable.
				st.logW += k.lnFailEXPns2
				st.events.Failures++
				duStart = t
				phase = phDUns1
			}

		case phDUns1:
			// One failed + one pulled: unavailable until undone.
			dt := sc.expNext() * k.invDU1
			if t+dt >= mission {
				st.downDU += mission - duStart
				return st
			}
			t += dt
			u := r.Float64() * k.totDU1
			switch {
			case u < k.cutUDU1:
				st.logW += k.lnQuietDU1
				st.events.UndoAttempts++
				if sc.hepTrial(r) {
					st.events.HumanErrors++
					continue // undo failed; array stays DU
				}
				// Pulled disk re-seated; failed member remains.
				st.downDU += t - duStart
				phase = phEXPns1
			case u < k.cutCDU1:
				// Pulled disk crashed: double loss, restore.
				st.logW += k.lnQuietDU1
				st.events.Crashes++
				st.downDU += t - duStart
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns
			default:
				// Third member lost: catastrophic, restore all.
				st.logW += k.lnFailDU1
				st.events.Failures++
				st.events.DoubleFailures++
				st.downDU += t - duStart
				t = sc.memDataLoss(&st, t, mission, k.invTape)
				phase = phOPns
			}

		case phDUns2:
			// Two healthy members pulled (double human error).
			dt := sc.expNext() * k.invDU2
			if t+dt >= mission {
				st.downDU += mission - duStart
				return st
			}
			t += dt
			u := r.Float64() * k.totDU2
			switch {
			case u < k.cutUDU2:
				st.logW += k.lnQuietDU2
				st.events.UndoAttempts++
				if sc.hepTrial(r) {
					st.events.HumanErrors++
					continue
				}
				// One pull undone; still one member out (up again).
				st.downDU += t - duStart
				phase = phEXPns2
			case u < k.cutCDU2:
				// One of the two pulled disks crashed; it becomes the
				// failed member of a still-unavailable DUns1.
				st.logW += k.lnQuietDU2
				st.events.Crashes++
				st.downDU += t - duStart
				duStart = t
				phase = phDUns1
			default:
				// Failure with two members out: catastrophic.
				st.logW += k.lnFailDU2
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
