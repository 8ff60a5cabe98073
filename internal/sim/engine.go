package sim

import (
	"math"

	"herald/internal/dist"
	"herald/internal/xrand"
)

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
	// fail is the skip-sampling law of the failure outcome, at its
	// biased probability cutF/tot.
	fail            geom
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
	r.fail = newGeom(p)
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
	// aggMin and aggMax bound benign-cycle aggregation chunks. aggMin
	// is the measured crossover: a chunk costs one Erlang draw per
	// phase (about 11 ns each) plus its sizing and straddle check,
	// while walking a cycle costs one ExpFloat64 per hold (about
	// 6-7 ns), so chunks of two and three cycles are walked instead.
	// It was measured over the paper grid before quietMission took
	// most of those lifetimes: on one core, aggMin 3 and 4 ran a pass
	// in the least CPU, 6 took 1.5% more and 2 took 6% more. Chunks
	// now run where the quiet-mission path does not (a lifetime whose
	// counters guarantee fewer quiet cycles than the mission expects,
	// a mission expecting more than gapCap failures) and after a
	// lifetime's first event.
	// aggMax matches the stage counts dist.ErlangFloat64 has cached
	// constants for.
	aggMin = 4
	aggMax = 64
)

// scratch is one worker's reusable simulation state: the failure-clock
// slice, an in-place reseedable stream and the kernel choice.
// Allocated once per worker, it makes the per-iteration hot loop
// allocation-free (pinned by TestHotLoopZeroAllocs). Walkers draw
// straight off src, each law through its own Sample on p, and keep
// their skip counters as locals, so no draw and no counter outlives
// its iteration.
type scratch struct {
	p       *ArrayParams
	mission float64 // Options.MissionTime: the horizon of every iteration
	src     xrand.Source
	fail    []float64

	// hep is the skip-sampling law of the human-error Bernoulli(HEP)
	// trial every service and undo attempt makes; each walker counts
	// it down through a gap of its own.
	hep geom

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

	// agg holds the per-phase stage scratch of the censored chunk
	// resolution (resolveChunk), one row per phase of the longest
	// benign cycle, sized to the largest aggregation chunk. Cold:
	// touched at most once per iteration, at mission end.
	agg [3][aggMax]float64

	// pois is the law of the mission's OP-time failure count that
	// quietMission draws; nil when the memoryless walkers run without
	// the quiet-mission path (noBatch, or a mission expecting more
	// than gapCap failures).
	pois *poissonTable
}

// newScratch builds a worker's scratch for a run's resolved options.
// Kernel feasibility must have been checked beforehand (Resolve); an
// infeasible forced request falls back to the generic walker here.
// opts.Bias is the resolved failure-inflation factor of an
// importance-sampled run (values <= 1 mean unbiased; Resolve refuses
// biased requests on non-memoryless configurations before any scratch
// is built); opts.noBatch zeroes the memoryless kernels' chunk rate
// and leaves their quiet-mission table unbuilt. Every iteration of the
// scratch walks opts.MissionTime.
func newScratch(p *ArrayParams, opts Options) *scratch {
	bias := opts.Bias
	if bias < 1 {
		bias = 1
	}
	sc := &scratch{
		p:         p,
		mission:   opts.MissionTime,
		crashInv:  inv(p.CrashRate),
		crash2Inv: inv(2 * p.CrashRate),
		hep:       newGeom(p.HEP),
	}
	if m, ok := memorylessRates(p); ok && (opts.Kernel == KernelAuto || opts.Kernel == KernelMemoryless) {
		// The rate-based walkers never touch the failure clocks;
		// skipping their allocation keeps short ranges (adaptive
		// probes, benchmark cells) off that setup cost.
		sc.memoryless = true
		switch p.Policy {
		case AutoFailover:
			sc.foK = makeFoMemK(p, m, bias, opts.noBatch)
		case DualParity:
			sc.dpK = makeDpMemK(p, m, bias, opts.noBatch)
		default:
			sc.convK = makeConvMemK(p, m, bias, opts.noBatch)
		}
		// Every policy's OP hold races all n members. A lifetime's
		// counters guarantee at most gapCap quiet cycles while a race
		// can fail, so quietMission never runs on a mission expecting
		// more failures than that, and the table is not built.
		if mu := opts.MissionTime * float64(p.Disks) * m.lambda; !opts.noBatch && mu <= gapCap {
			sc.pois = newPoissonTable(mu)
		}
		return sc
	}
	sc.fail = make([]float64, p.Disks)
	return sc
}

// iterate walks one array lifetime over the scratch's mission for
// iteration index it. Each iteration reseeds the stream in place from
// (seed, it), and every skip counter is a local of the walker it
// dispatches to, so the draw sequence of an iteration depends only on
// the master seed and the iteration index — never on which worker ran
// it or how iterations were scheduled.
func (sc *scratch) iterate(seed uint64, it int) iterStats {
	sc.src.SeedStream(seed, uint64(it))
	if sc.memoryless {
		switch sc.p.Policy {
		case AutoFailover:
			return sc.failoverMemoryless(sc.mission)
		case DualParity:
			return sc.dualParityMemoryless(sc.mission)
		default:
			return sc.conventionalMemoryless(sc.mission)
		}
	}
	sc.scanOK = false
	switch sc.p.Policy {
	case AutoFailover:
		return sc.failover(sc.mission)
	case DualParity:
		return sc.dualParity(sc.mission)
	default:
		return sc.conventional(sc.mission)
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

// geom is the law of a skip-sampled iid Bernoulli(p) sequence: the
// number of failures before the next success is geometric,
// floor(ln U / ln(1-p)), so one draw replaces one uniform per trial
// with one uniform per success. inv is the divisor's reciprocal
// 1/ln(1-p), resolved once with the kernel constants: a negative
// normal for 0 < p < 1, -0 for p >= 1 and +Inf for p <= 0 (both
// sentinels draw without touching the stream). qCap is the censoring
// threshold P(gap >= gapCap) = (1-p)^gapCap.
type geom struct {
	inv, qCap float64
}

func newGeom(p float64) geom {
	if p <= 0 {
		return geom{inv: plusInf}
	}
	if p >= 1 {
		return geom{inv: math.Copysign(0, -1)}
	}
	ln := math.Log1p(-p)
	return geom{inv: 1 / ln, qCap: math.Exp(float64(gapCap) * ln)}
}

// gapCap is the censoring horizon of geom.draw: a counter is
// materialized exactly only when it falls short of gapCap trials, and
// reported as a censored gapCap otherwise. It must be at least aggMax
// so a censored counter never constrains a quiet chunk.
const gapCap = aggMax

// draw draws a fresh counter. p <= 0 never succeeds (MaxInt outlives
// any mission) and p >= 1 always does. Otherwise the draw is censored
// at gapCap: when the uniform lands at or below qCap — the gap is at
// least gapCap — it returns a censored gapCap without computing the
// logarithm. By memorylessness the excess over gapCap is again
// geometric, so a counter that runs out censored is redrawn instead
// of firing (gap.spent); a censored draw is never 0, so one redraw
// settles the trial. For the rare race outcomes the kernels
// skip-sample (p of 1e-3 and below, censored ~94% of the time) this
// reduces the draw to one uniform and one compare. Beyond the
// human-error trials, the memoryless kernels use it for exactly those
// races: in a CTMC the winner of a state's exit race is an iid
// Bernoulli draw independent of the holding times.
func (l geom) draw(r *xrand.Source) gap {
	if l.inv >= 0 { // the sentinels: +Inf (never) and -0 (always)
		if l.inv > 0 {
			return gap{n: math.MaxInt, exact: true}
		}
		return gap{exact: true}
	}
	u := r.OpenFloat64()
	if u <= l.qCap {
		return gap{n: gapCap}
	}
	return gap{n: int(math.Log(u) * l.inv), exact: true}
}

// gap counts down one skip-sampled trial sequence: the next n trials
// fail, and the one after them succeeds when the counter is exact or
// redraws it when censored. The zero gap is spent — not drawn yet,
// fired, or run out censored all redraw alike — so each walker
// declares its counters as zero locals and draws them lazily, and no
// counter outlives its iteration. The checks inline, so a trial that
// only decrements and a fill with nothing to draw cost no call;
// hitSlow and draw stay out of line.
type gap struct {
	n     int
	exact bool
}

// spent reports whether the counter must be redrawn before its next
// trial.
func (g *gap) spent() bool { return g.n == 0 && !g.exact }

// fill redraws a spent counter from its law l, so that n bounds the
// trials known to fail (a chunk of quiet cycles).
func (g *gap) fill(r *xrand.Source, l geom) {
	if g.spent() {
		*g = l.draw(r)
	}
}

// hit runs the next trial of the sequence with law l and reports
// whether it succeeds.
func (g *gap) hit(r *xrand.Source, l geom) bool {
	if g.n > 0 {
		g.n--
		return false
	}
	return g.hitSlow(r, l)
}

func (g *gap) hitSlow(r *xrand.Source, l geom) bool {
	g.fill(r, l)
	if g.n == 0 {
		g.exact = false // fired: spent until redrawn
		return true
	}
	g.n--
	return false
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

// poisLen is the length of the quiet-mission count table: twice
// gapCap, so that a Poisson count of mean at most gapCap lands past it
// with probability below 2e-12.
const poisLen = 2 * gapCap

// poissonTable is the law of a Poisson(mu) count, drawn by inversion
// of one uniform. cdf[k] = P(N <= k) for k < poisLen, summed from the
// pmf recurrence p_0 = e^-mu, p_k = p_{k-1}·mu/k, and guide[i] is the
// least k with cdf[k] > i/poisLen (a Chen-Asau guide table), so a draw
// starts its search within a step or two of its answer. The rare
// uniform past cdf[poisLen-1] continues the recurrence from pLast, the
// pmf at poisLen-1.
type poissonTable struct {
	mu, pLast float64
	cdf       [poisLen]float64
	guide     [poisLen]uint8
}

func newPoissonTable(mu float64) *poissonTable {
	t := &poissonTable{mu: mu}
	p := math.Exp(-mu)
	sum := p
	t.cdf[0] = sum
	for k := 1; k < poisLen; k++ {
		p *= mu / float64(k)
		sum += p
		t.cdf[k] = sum
	}
	t.pLast = p
	k := 0
	for i := range t.guide {
		for k < poisLen-1 && t.cdf[k] <= float64(i)/poisLen {
			k++
		}
		t.guide[i] = uint8(k)
	}
	return t
}

// count returns the least k with P(N <= k) > u for u in [0, 1).
func (t *poissonTable) count(u float64) int {
	k := int(t.guide[int(u*poisLen)&(poisLen-1)])
	for ; k < poisLen; k++ {
		if u < t.cdf[k] {
			return k
		}
	}
	// The far tail. The recurrence stops where its terms no longer
	// move the sum, at a probability of order 1e-16.
	p, sum := t.pLast, t.cdf[poisLen-1]
	for k = poisLen; ; k++ {
		p *= t.mu / float64(k)
		if sum+p == sum || u < sum+p {
			return k
		}
		sum += p
	}
}

// quietRuns reports whether a memoryless walker whose filled skip
// counters guarantee m quiet benign cycles resolves its lifetime's
// start through quietMission: only when m covers the mission's
// expected failure count mu. The choice sees m and mu, never the
// count the path draws, so it cannot bias the lifetime. A lifetime
// with m < mu would mostly jump to failure m+1 and hand its walker
// back, paying for the jump and saving little; it walks its cycles
// and chunks instead, drawing exactly the variates it drew before the
// path existed.
func (sc *scratch) quietRuns(m int) bool {
	return sc.pois != nil && float64(m) >= sc.pois.mu
}

// quietMission resolves the start of a lifetime whose skip counters
// guarantee m >= 1 quiet benign cycles, in O(1) expected draws instead
// of O(cycles). A cycle is the OP hold of rate n·lambda, ended by a
// member failure, then the later phases' holds of mean inv[ph] in
// order, each a race the counters make quiet for m cycles. It returns
// the time and true when the walker must go on from the first later
// phase of cycle m+1, with every counter reduced by m, or false when
// the lifetime is quiet to mission end.
//
// OP holds are iid exponential and independent of the later holds, so
// the failures arrive at the points of a Poisson process of rate
// n·lambda on the OP-time axis: failure k comes at wall time
// tau_k + L_{k-1}, its OP-time plus the later-phase totals of the k-1
// cycles before it, and only a point with tau_k < T can be a failure
// within the mission T. The path draws N, the count of such points,
// from pois (mean mu = n·lambda·T) and stands on failure
// k = min(N, m+1), with L_{k-1} an Erlang(k-1) total per later phase:
//
//   - N <= m: tau_N, the largest of N uniforms on [0, T), is
//     T·v^(1/N) for a uniform v, so failure N fits exactly when
//     v < (1 - L_{N-1}/T)^N, and an unbiased lifetime whose failure N
//     fits takes no root;
//   - N > m: tau_{m+1}, the (m+1)-th of N, is T·Beta(m+1, N-m).
//
// When failure k falls at or past T, the path steps down a failure:
// given tau_k, tau_{k-1} is tau_k·Beta(k-1, 1), and given a phase's
// total of k-1 holds, the total of the first k-2 is its Beta(k-2, 1)
// share, both independent of what the step-down saw. Failure 1 always
// fits. Stepping down from m+1 or from N lands on the last failure
// within the mission of a lifetime quiet to its end. A fitting failure
// m+1 is handed back: by the strong Markov property of the OP-time
// process at its (m+1)-th point, every hold after it is a fresh draw,
// and the N-m-1 later points the count promised are never used.
//
// ln[ph] is the quiet-race log-weight of later phase ph under
// importance sampling (0 unbiased): each later-phase race the
// lifetime completes within the mission weighs once. The cycles
// before the last failure complete all of theirs; the last cycle's
// phases complete in order while they fit, its holds the difference
// of the totals before and after the step-down's last split, or fresh
// draws when failure N fit at once. Unbiased lifetimes skip that
// replay, which changes no count and no downtime.
func (sc *scratch) quietMission(st *iterStats, m int, inv, ln []float64) (float64, bool) {
	r, mission := &sc.src, sc.mission
	n := sc.pois.count(r.Float64())
	if n == 0 {
		return mission, false
	}
	k := min(n, m+1)
	// tot[ph] is phase ph's total over the k-1 cycles before failure
	// k, prev[ph] its total over k cycles once a step-down split it.
	var tot, prev [2]float64
	lnCycle, later := 0.0, 0.0
	for ph := range inv {
		lnCycle += ln[ph]
		if k > 1 {
			tot[ph] = dist.ErlangFloat64(r, k-1) * inv[ph]
			later += tot[ph]
		}
	}
	var tau float64
	if k > m {
		tau = mission * beta(r, k, n-m)
		if tau+later < mission {
			st.events.Failures += int64(k)
			st.logW += float64(m) * lnCycle
			return tau + later, true
		}
	} else {
		// tau_N = T·v^(1/N) falls short of T-later exactly when
		// v < (1-later/T)^N, so a lifetime whose failure N fits needs
		// no root: an unbiased one is done, and a biased one draws
		// tau_N afresh from its law given the fit, the largest of N
		// uniforms on [0, T-later).
		v := r.Float64()
		switch {
		case !(later < mission && v < powInt(1-later/mission, n)):
			tau = mission * math.Exp(math.Log(v)/float64(n))
		case lnCycle == 0:
			st.events.Failures += int64(n)
			return mission, false
		default:
			tau = (mission - later) * beta(r, n, 1)
		}
	}
	fresh := true
	for tau+later >= mission {
		if k == 1 {
			return mission, false // tau_1 rounded up to T
		}
		k--
		tau *= beta(r, k, 1)
		prev, later = tot, 0
		for ph := range inv {
			if k > 1 {
				tot[ph] *= beta(r, k-1, 1)
			} else {
				tot[ph] = 0
			}
			later += tot[ph]
		}
		fresh = false
	}
	st.events.Failures += int64(k)
	if lnCycle == 0 {
		return mission, false
	}
	st.logW += float64(k-1) * lnCycle
	t := tau + later
	for ph := range inv {
		if fresh {
			t += r.ExpFloat64() * inv[ph]
		} else {
			t += prev[ph] - tot[ph]
		}
		if t >= mission {
			break
		}
		st.logW += ln[ph]
	}
	return mission, false
}

// powInt returns x^n for n >= 0 by repeated squaring.
func powInt(x float64, n int) float64 {
	p := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			p *= x
		}
		x *= x
	}
	return p
}

// beta draws a Beta(a, b) variate for integers a, b >= 1: the share
// Ga/(Ga+Gb) of independent Erlang(a) and Erlang(b) totals, so it
// takes two Marsaglia-Tsang or ziggurat draws and no logarithm.
// Beta(k, 1) is the largest of k uniforms on (0, 1), and Beta(j, k-j+1)
// the j-th smallest.
func beta(r *xrand.Source, a, b int) float64 {
	x := dist.ErlangFloat64(r, a)
	return x / (x + dist.ErlangFloat64(r, b))
}
