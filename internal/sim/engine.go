package sim

import (
	"math"

	"herald/internal/dist"
	"herald/internal/xrand"
)

// sampler caches the devirtualized fast path for one distribution,
// resolved once per worker instead of per draw: memoryless laws
// (rate > 0, see dist.Memoryless) are drawn inline via
// expInv(r, invRate) with no interface dispatch, and laws implementing
// dist.BatchSampler fill slices through their batch algorithm.
type sampler struct {
	d     dist.Distribution
	batch dist.BatchSampler
	// rate > 0 marks a memoryless law; invRate caches 1/rate so the
	// hot path multiplies instead of divides (the values differ from
	// Exponential.Sample in the last ulp, which the stream-level
	// determinism contract permits).
	rate    float64
	invRate float64
}

func newSampler(d dist.Distribution) sampler {
	sp := sampler{d: d}
	if d == nil {
		return sp
	}
	if rate, ok := dist.Memoryless(d); ok {
		sp.rate = rate
		sp.invRate = 1 / rate
	}
	if b, ok := d.(dist.BatchSampler); ok {
		sp.batch = b
	}
	return sp
}

// sample draws one variate: inline exponential draws when the law
// allows it, one interface dispatch otherwise.
func (sp *sampler) sample(r *xrand.Source) float64 {
	if sp.rate > 0 {
		return expInv(r, sp.invRate)
	}
	return sp.sampleSlow(r)
}

func (sp *sampler) sampleSlow(r *xrand.Source) float64 { return sp.d.Sample(r) }

// sampleN fills dst with independent draws.
func (sp *sampler) sampleN(r *xrand.Source, dst []float64) {
	if sp.rate > 0 {
		for i := range dst {
			dst[i] = expInv(r, sp.invRate)
		}
		return
	}
	if sp.batch != nil {
		sp.batch.SampleN(r, dst)
		return
	}
	for i := range dst {
		dst[i] = sp.d.Sample(r)
	}
}

// memRates are the hazard rates of a fully memoryless configuration —
// the input of the rate-based kernels. muHE is 0 when HEP is 0 (the
// undo law is never drawn); muS and muCH are 0 outside AutoFailover.
type memRates struct {
	lambda float64 // per-disk failure
	muDF   float64 // replacement / rebuild service
	muDDF  float64 // tape restore
	muHE   float64 // human-error undo attempt
	muS    float64 // on-line rebuild to hot spare
	muCH   float64 // spare swap
}

// race is one CTMC state's exit race, as the memoryless kernels walk
// it: a nominal holding time, then a winner draw u ~ U[0, tot) that
// picks the undo (or service) exit below cutU, the crash exit below
// cutC and a disk failure above it (or, where a walker tests it
// first, below cutF). G = undo + crash is the non-failure exit total
// and F = k·lambda the failure total of the k members still racing.
//
// Under failure-biasing importance sampling (Options.Bias) only the
// winner draw changes: the failure share is inflated to b·F while the
// hold keeps its nominal rate G+F, so the clock stays calibrated and
// the likelihood ratio of each win is a constant of the race — lnQuiet
// for a non-failure win, lnFail for a failure win (the change-of-measure
// rule of bias.go). A walker adds the weight only once the hold has
// completed within the mission: a hold the mission censors decides no
// winner and weighs nothing. b = 1 reproduces the unbiased constants
// exactly: multiplying by 1 is exact and both weights are 0.
type race struct {
	inv              float64 // 1/(G+F): the nominal hold
	tot              float64 // G + b·F: the winner draw's normalizer
	cutU, cutC, cutF float64 // undo share, G, and the biased failure share b·F
	// gapInv and gapQCap skip-sample the failure outcome (drawGeomGap)
	// at its biased probability cutF/tot.
	gapInv, gapQCap float64
	lnQuiet, lnFail float64
}

// newRace builds the race of a state whose non-failure exits are undo
// (or a service) and crash, with k members failing at rate lambda each,
// under failure-bias factor b (1 unbiased).
func newRace(undo, crash, k, lambda, b float64) race {
	g := undo + crash
	nominal := g + k*lambda
	r := race{
		inv:  inv(nominal),
		tot:  g + b*k*lambda,
		cutU: undo,
		cutC: g,
		cutF: b * k * lambda,
	}
	p := 0.0
	if r.tot > 0 {
		p = r.cutF / r.tot
	}
	r.gapInv, r.gapQCap = geomInv(p), geomQCap(p)
	if b > 1 && nominal > 0 {
		r.lnQuiet = math.Log(r.tot / nominal)
		r.lnFail = r.lnQuiet - math.Log(b)
	}
	return r
}

// memorylessRates resolves the configuration's rates when every law
// the policy draws from answers dist.Memoryless.
func memorylessRates(p *ArrayParams) (memRates, bool) {
	var m memRates
	var ok bool
	if m.lambda, ok = dist.Memoryless(p.TTF); !ok {
		return m, false
	}
	if m.muDF, ok = dist.Memoryless(p.Repair); !ok {
		return m, false
	}
	if m.muDDF, ok = dist.Memoryless(p.TapeRestore); !ok {
		return m, false
	}
	if p.HEP > 0 {
		if m.muHE, ok = dist.Memoryless(p.HERecovery); !ok {
			return m, false
		}
	}
	if p.Policy == AutoFailover {
		if m.muS, ok = dist.Memoryless(p.SpareRebuild); !ok {
			return m, false
		}
		if m.muCH, ok = dist.Memoryless(p.SpareSwap); !ok {
			return m, false
		}
	}
	return m, true
}

const (
	// expBufLen is the refill granularity of the scratch's rate-1
	// exponential buffer: small enough that the draws left unread at
	// iteration end (the buffer never carries across iterations) stay
	// cheap — with aggregation, an iteration's individual cycles only
	// need a handful — large enough to amortize ExpFloat64N's
	// batching win.
	expBufLen = 8

	// aggMin and aggMax bound benign-cycle aggregation chunks. aggMin
	// is the measured crossover: a chunk costs one Erlang draw per
	// phase (about 11 ns each) plus its sizing and straddle check,
	// while walking a cycle costs one buffered exponential per hold
	// (about 3 ns), so chunks of two and three cycles are walked
	// instead. Over the paper grid on one core, aggMin 3 and 4 ran a
	// pass in the least CPU, 6 took 1.5% more and 2 took 6% more.
	// aggMax matches the stage counts dist.ErlangFloat64 has cached
	// constants for.
	aggMin = 4
	aggMax = 64
)

// scratch is one worker's reusable simulation state: the failure-clock
// slice, an in-place reseedable stream, the resolved samplers and the
// kernel choice. Allocated once per worker, it makes the per-iteration
// hot loop allocation-free (pinned by TestHotLoopZeroAllocs).
type scratch struct {
	p    *ArrayParams
	src  xrand.Source
	fail []float64

	// expPos indexes the first unread variate of expBuf (the buffer
	// itself lives at the end of the struct, keeping the hot scalar
	// fields on few cache lines). noBatch (test-only, from Options)
	// bypasses both the refill buffer and benign-cycle aggregation,
	// giving the unbatched reference realization.
	expPos  int
	noBatch bool

	// hepGap counts the human-error Bernoulli(HEP) trials remaining
	// before the next error fires (geometric skip sampling: one log
	// draw per error instead of one uniform per trial). -1 means not
	// drawn yet; iterate resets it so iterations stay independent.
	// hepExact records whether the current value is a materialized gap
	// or a censored horizon (see drawGeomGap); hepInv and hepQCap are
	// the trial probability's precomputed geomInv divisor and
	// censoring threshold.
	hepGap   int
	hepExact bool
	hepInv   float64
	hepQCap  float64

	ttf, repair, tape, herec, rebuild, swap sampler

	// crashInv / crash2Inv cache the inverse crash-clock rates for
	// expInv (0 when the disks never crash while pulled).
	crashInv, crash2Inv float64

	// memoryless is true when this scratch runs the rate-based
	// kernels; the per-policy constant blocks below are then resolved.
	memoryless bool
	convK      convMemK
	foK        foMemK
	dpK        dpMemK

	// Cached two-min failure scan, threaded through the fail-over
	// phase machine: scanOK is invalidated whenever a clock changes
	// (clocksChanged), so phases that exclude at most one disk reuse
	// one scan instead of re-scanning per transition.
	scanOK         bool
	scanI1, scanI2 int
	scanT1, scanT2 float64

	// expBuf[expPos:] holds rate-1 exponentials not yet handed out;
	// refills draw from the iteration's stream (ExpFloat64N), and
	// iterate marks the buffer empty at each reseed, so buffered draws
	// remain a pure function of (seed, iteration) — the buffer is
	// logically part of the iteration's stream, never shared across
	// iterations.
	expBuf [expBufLen]float64

	// agg holds the per-phase stage scratch of the censored chunk
	// resolution (resolveChunk), one row per phase of the longest
	// benign cycle, sized to the largest aggregation chunk. Cold:
	// touched at most once per iteration, at mission end.
	agg [3][aggMax]float64
}

// newScratch builds a worker's scratch for the given kernel request.
// Kernel feasibility must have been checked beforehand (Resolve); an
// infeasible forced request falls back to the generic walker here.
// bias is the resolved failure-inflation factor of an importance-sampled
// run (values <= 1 mean unbiased; Resolve refuses biased requests on
// non-memoryless configurations before any scratch is built).
func newScratch(p *ArrayParams, k Kernel, noBatch bool, bias float64) *scratch {
	if bias < 1 {
		bias = 1
	}
	sc := &scratch{
		p:         p,
		noBatch:   noBatch,
		crashInv:  inv(p.CrashRate),
		crash2Inv: inv(2 * p.CrashRate),
		hepInv:    geomInv(p.HEP),
		hepQCap:   geomQCap(p.HEP),
	}
	if m, ok := memorylessRates(p); ok && (k == KernelAuto || k == KernelMemoryless) {
		// The rate-based walkers never touch the failure clocks or the
		// law samplers; skipping their construction keeps short ranges
		// (adaptive probes, benchmark cells) off that setup cost.
		sc.memoryless = true
		switch p.Policy {
		case AutoFailover:
			sc.foK = makeFoMemK(p, m, bias)
		case DualParity:
			sc.dpK = makeDpMemK(p, m, bias)
		default:
			sc.convK = makeConvMemK(p, m, bias)
		}
		return sc
	}
	sc.fail = make([]float64, p.Disks)
	sc.ttf = newSampler(p.TTF)
	sc.repair = newSampler(p.Repair)
	sc.tape = newSampler(p.TapeRestore)
	sc.herec = newSampler(p.HERecovery)
	sc.rebuild = newSampler(p.SpareRebuild)
	sc.swap = newSampler(p.SpareSwap)
	return sc
}

// iterate walks one array lifetime for iteration index it. Each
// iteration reseeds the stream in place from (seed, it) and resets the
// skip counter, so the draw sequence of an iteration depends only on
// the master seed and the iteration index — never on which worker ran
// it or how iterations were scheduled.
func (sc *scratch) iterate(seed uint64, it int, mission float64) iterStats {
	sc.src.SeedStream(seed, uint64(it))
	sc.hepGap = -1
	sc.expPos = expBufLen // discard buffered draws of the previous iteration
	if sc.memoryless {
		switch sc.p.Policy {
		case AutoFailover:
			return sc.failoverMemoryless(mission)
		case DualParity:
			return sc.dualParityMemoryless(mission)
		default:
			return sc.conventionalMemoryless(mission)
		}
	}
	sc.scanOK = false
	switch sc.p.Policy {
	case AutoFailover:
		return sc.failover(mission)
	case DualParity:
		return sc.dualParity(mission)
	default:
		return sc.conventional(mission)
	}
}

// clocksChanged invalidates the cached two-min scan; call it after any
// write to sc.fail.
func (sc *scratch) clocksChanged() { sc.scanOK = false }

// refreshScan recomputes the cached two smallest failure clocks.
func (sc *scratch) refreshScan() {
	if len(sc.fail) == 4 {
		sc.scanI1, sc.scanT1, sc.scanI2, sc.scanT2 = twoMin4(sc.fail)
	} else {
		sc.scanI1, sc.scanT1, sc.scanI2, sc.scanT2 = twoMin(sc.fail)
	}
	sc.scanOK = true
}

// cachedNextFailure returns the earliest failure clock skipping ex
// (noDisk for none), with nextFailure's expired-clock clamp to now.
// It answers from the cached two-min scan, recomputing only when a
// clock changed since the last scan — at most one exclusion can be
// resolved this way, which covers every up-phase of the fail-over
// machine.
func (sc *scratch) cachedNextFailure(now float64, ex int) (int, float64) {
	if !sc.scanOK {
		sc.refreshScan()
	}
	i, at := sc.scanI1, sc.scanT1
	if i == ex {
		i, at = sc.scanI2, sc.scanT2
	}
	if i >= 0 && at < now {
		at = now
	}
	return i, at
}

// hepTrial reports whether the next human-error opportunity turns into
// an error. The trials are iid Bernoulli(HEP), realized by geometric
// gap sampling: the number of error-free trials before the next error
// is drawn once (floor(ln U / ln(1-hep))) and then counted down, which
// replaces one uniform per service with one logarithm per error. A
// censored counter that runs out is redrawn instead of firing (see
// drawGeomGap); the fresh draw never returns a censored 0, so one
// redraw settles the trial.
func (sc *scratch) hepTrial(r *xrand.Source) bool {
	if sc.hepGap < 0 || (sc.hepGap == 0 && !sc.hepExact) {
		sc.drawHEPGap(r)
	}
	if sc.hepGap == 0 {
		sc.hepGap = -1 // error fires; redraw before the next trial
		return true
	}
	sc.hepGap--
	return false
}

// drawHEPGap draws the geometric number of error-free trials before
// the next human error into sc.hepGap/sc.hepExact. HEP 0 never errs
// (the counter never runs out within a mission), HEP 1 always errs;
// neither consumes randomness, matching Bernoulli's edge behavior.
func (sc *scratch) drawHEPGap(r *xrand.Source) {
	sc.hepGap, sc.hepExact = drawGeomGap(r, sc.hepInv, sc.hepQCap)
}

// geomInv precomputes drawGeomGap's divisor as a reciprocal,
// 1/ln(1-p): a negative normal for 0 < p < 1, -0 for p >= 1 and +Inf
// for p <= 0 (both sentinels drawGeomGap resolves without touching
// the stream). Resolving it once with the kernel constants removes a
// log1p and a division from every geometric draw.
func geomInv(p float64) float64 {
	if p <= 0 {
		return plusInf
	}
	if p >= 1 {
		return math.Copysign(0, -1)
	}
	return 1 / math.Log1p(-p)
}

// gapCap is the censoring horizon of drawGeomGap: a counter is
// materialized exactly only when it falls short of gapCap trials, and
// reported as a censored gapCap otherwise. It must be at least aggMax
// so a censored counter never constrains a quiet chunk.
const gapCap = aggMax

// geomQCap precomputes the censoring threshold P(gap >= gapCap) =
// (1-p)^gapCap that drawGeomGap tests its uniform against. Only
// consulted for 0 < p < 1 (geomInv's sentinels bypass the draw).
func geomQCap(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return math.Exp(float64(gapCap) * math.Log1p(-p))
}

// drawGeomGap draws the geometric number of failures before the next
// success of an iid Bernoulli(p) sequence — floor(ln U / ln(1-p)) —
// taking the divisor as the precomputed reciprocal invLn = geomInv(p)
// and the censoring threshold qCap = geomQCap(p). p <= 0 (invLn +Inf)
// never succeeds (MaxInt outlives any mission), p >= 1 (invLn -0)
// always does; neither consumes randomness.
//
// The draw is censored at gapCap: when the uniform lands at or below
// qCap — the gap is at least gapCap — it returns (gapCap, false)
// without computing the logarithm. By memorylessness the excess over
// gapCap is again geometric, so a consumer that exhausts a censored
// counter redraws it fresh instead of firing the event; a censored
// draw never returns 0, so one redraw settles the decision. For the
// rare race outcomes the kernels skip-sample (p of 1e-3 and below,
// censored ~94% of the time) this reduces the draw to one uniform and
// one compare. Beyond the human-error trials, the memoryless kernels
// use it for exactly those races: in a CTMC the winner of a state's
// exit race is an iid Bernoulli draw independent of the holding
// times.
func drawGeomGap(r *xrand.Source, invLn, qCap float64) (gap int, exact bool) {
	if invLn >= 0 { // the sentinels: +Inf (never) and -0 (always)
		if invLn > 0 {
			return math.MaxInt, true
		}
		return 0, true
	}
	u := r.OpenFloat64()
	if u <= qCap {
		return gapCap, false
	}
	return int(math.Log(u) * invLn), true
}

// expNext returns the next rate-1 exponential of the iteration's
// stream, refilled through the buffer in expBufLen batches (see the
// expBuf field comment). Under noBatch it draws directly, giving the
// unbatched reference realization.
func (sc *scratch) expNext() float64 {
	if sc.noBatch {
		return sc.src.ExpFloat64()
	}
	if sc.expPos == expBufLen {
		sc.src.ExpFloat64N(sc.expBuf[:])
		sc.expPos = 0
	}
	v := sc.expBuf[sc.expPos]
	sc.expPos++
	return v
}

// erlangChunk draws one Erlang(c) variate scaled by invRate — the
// elapsed time of c aggregated same-phase holds.
func (sc *scratch) erlangChunk(c int, invRate float64) float64 {
	return dist.ErlangFloat64(&sc.src, c) * invRate
}

// quietChunk sizes the next benign-cycle aggregation chunk: 3/4 of
// the expected cycles left in the mission — large enough to collapse
// most of the mission in a couple of chunks, small enough that chunks
// rarely straddle mission end (an exact but cycle-by-cycle resolution,
// resolveChunk) — bounded by the quiet cycles the skip counters
// guarantee and by the cached Erlang constants. 0 means aggregation
// stops paying and the caller walks cycles individually.
func quietChunk(expCycles float64, g1, g2, g3 int) int {
	c := int(expCycles * 0.75)
	if c > aggMax {
		c = aggMax
	}
	if g1 < c {
		c = g1
	}
	if g2 < c {
		c = g2
	}
	if g3 < c {
		c = g3
	}
	if c < aggMin {
		return 0
	}
	return c
}

// resolveChunk finishes an iteration whose aggregated chunk of c
// benign cycles straddles mission end. A cycle runs len(tot) phases in
// order — OP hold, then the exposed race, then (fail-over) the spare
// swap — and tot[ph] is the chunk's drawn Erlang total of phase ph.
// Conditioned on an Erlang total, the individual stage holds are the
// total split proportionally to fresh iid rate-1 exponentials (the
// Dirichlet(1,...,1) representation of uniform order-statistic
// spacings), so the walk below replays the chunk cycle by cycle and
// counts the member failures — one per completed first-phase hold —
// that precede mission end, exactly as the unaggregated walk would.
// The array is up throughout a benign cycle, so no downtime accrues,
// and the iteration ends inside the chunk by construction.
//
// ln[ph] is the quiet-race log-weight of a later phase ph under
// importance sampling (0 unbiased; ln[0] is unused). A race's trial
// only manifests once its hold completes within the mission, so its
// weight lands after that phase's censoring check: the chunk's skip
// counters stay untouched for a straddling chunk, and trials the
// mission cuts off must not weigh.
func (sc *scratch) resolveChunk(st *iterStats, t, mission float64, c int, tot, ln []float64) {
	var scale [len(sc.agg)]float64
	for ph := range tot {
		x := sc.agg[ph][:c]
		sc.src.ExpFloat64N(x)
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		scale[ph] = tot[ph] / sum
	}
	for i := 0; i < c; i++ {
		for ph := range tot {
			t += sc.agg[ph][i] * scale[ph]
			if t >= mission {
				return
			}
			if ph == 0 {
				st.events.Failures++
			} else {
				st.logW += ln[ph]
			}
		}
	}
	// Unreachable up to floating-point rounding of the prefix sums;
	// landing here means the mission boundary fell within rounding of
	// the chunk's end, with every cycle complete.
}
