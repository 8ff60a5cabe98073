package sim

import (
	"fmt"
	"math"
	"testing"

	"herald/internal/dist"
	"herald/internal/xrand"
)

// TestBatchedMatchesUnbatchedCI cross-validates benign-cycle
// aggregation and the quiet-mission path statistically: an aggregated
// run and its cycle-by-cycle reference (Options.noBatch, a chunk rate
// of 0 and no quiet-mission table) consume the per-iteration streams
// differently, so they are distinct exact realizations of the same
// process — their confidence intervals must overlap. Run at 1e5
// iterations per policy x kernel so the intervals are tight enough to
// catch a distributional bug in the Erlang chunks, their straddle
// resolution (resolveChunk), or the censored geometric skip counters.
// Those runs expect 600 failures per lifetime, past gapCap, so
// quietMission never runs there; the paper-rate rows below run it.
func TestBatchedMatchesUnbatchedCI(t *testing.T) {
	for _, pol := range policies {
		for _, kern := range []Kernel{KernelGeneric, KernelMemoryless} {
			p := paramsFor(pol)
			o := Options{Iterations: 100000, MissionTime: 1e6, Seed: 12, Workers: 0, Kernel: kern}
			batched, err := Run(p, o)
			if err != nil {
				t.Fatalf("%v/%v: %v", pol, kern, err)
			}
			o.noBatch = true
			plain, err := Run(p, o)
			if err != nil {
				t.Fatalf("%v/%v noBatch: %v", pol, kern, err)
			}
			gap := math.Abs(batched.Availability - plain.Availability)
			if lim := batched.HalfWidth + plain.HalfWidth; gap > lim {
				t.Errorf("%v/%v: batched %.12f vs unbatched %.12f differ by %g, beyond the summed 99%% half-widths %g",
					pol, kern, batched.Availability, plain.Availability, gap, lim)
			}
			// The generic walkers have no batching transforms to
			// disable; there the reference must be bit-identical.
			if kern == KernelGeneric && batched != plain {
				t.Errorf("%v/%v: noBatch changed the generic realization:\n%+v\n%+v",
					pol, kern, batched, plain)
			}
		}
	}

	// At the paper's rates over 1e6 h a four-disk array expects 4
	// (lambda 1e-6) or 40 (lambda 1e-5) failures, and most lifetimes
	// resolve through quietMission. At lambda 2e-6 and HEP 0.1 it
	// expects 8, and about one lifetime in 25 jumps to a human error
	// and hands its walker back; a million lifetimes there put a
	// walker that resumed in OP, one failure too many per jump, 10
	// standard errors off. Each run must overlap its cycle-by-cycle
	// reference and cover the exact answer, and the two runs' failure
	// and human-error totals must agree within 5 standard errors (each
	// count's variance taken as its mean).
	for _, pol := range policies {
		for _, pt := range []struct {
			lambda, hep float64
			iters       int
		}{{1e-6, 0.01, 400000}, {1e-5, 0.01, 200000}, {2e-6, 0.1, 1000000}} {
			p := PaperDefaults(4, pt.lambda, pt.hep)
			p.Policy = pol
			name := fmt.Sprintf("%v lambda %g HEP %g", pol, pt.lambda, pt.hep)
			exact := exactAvailability(t, p, 1e6)
			o := Options{Iterations: pt.iters, MissionTime: 1e6, Seed: 13, Kernel: KernelMemoryless}
			fast, err := Run(p, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			o.noBatch = true
			plain, err := Run(p, o)
			if err != nil {
				t.Fatalf("%s noBatch: %v", name, err)
			}
			if gap := math.Abs(fast.Availability - plain.Availability); gap > fast.HalfWidth+plain.HalfWidth {
				t.Errorf("%s: quiet-mission %.12f vs cycle-by-cycle %.12f differ by %g, beyond the summed 99%% half-widths %g",
					name, fast.Availability, plain.Availability, gap, fast.HalfWidth+plain.HalfWidth)
			}
			for _, s := range []struct {
				what string
				sum  Summary
			}{{"quiet-mission", fast}, {"cycle-by-cycle", plain}} {
				if d := math.Abs(s.sum.Availability - exact); d > s.sum.HalfWidth {
					t.Errorf("%s: %s run %.12f ± %.3g misses the exact %.12f by %.3g",
						name, s.what, s.sum.Availability, s.sum.HalfWidth, exact, d)
				}
			}
			for _, c := range []struct {
				what string
				a, b int64
			}{
				{"failures", fast.Events.Failures, plain.Events.Failures},
				{"human errors", fast.Events.HumanErrors, plain.Events.HumanErrors},
			} {
				if d, se := math.Abs(float64(c.a-c.b)), math.Sqrt(float64(c.a+c.b)); d > 5*se {
					t.Errorf("%s: %d %s (quiet-mission) vs %d (cycle-by-cycle), beyond 5 standard errors %.0f",
						name, c.a, c.what, c.b, 5*se)
				}
			}
		}
	}
}

// TestBiasedQuietMissionMatchesExact runs the quiet-mission path under
// an explicit failure bias of 3, where its weights carry real mass:
// a four-disk array at lambda 1e-4 and HEP 0.01 over 1e4 h (4 expected
// failures) with a 139-hour repair, so that a repair loses its race
// to a second failure with probability 0.04, or 0.11 under the bias.
// Most lifetimes' counters still guarantee the 4 quiet cycles, so they
// resolve through quietMission, where each completed quiet race
// weighs ln((G+3F)/(G+F)), about 0.08, and a slack step-down is
// common. Each policy's biased run must cover the exact answer and
// overlap its cycle-by-cycle reference.
func TestBiasedQuietMissionMatchesExact(t *testing.T) {
	for _, pol := range policies {
		p := PaperDefaults(4, 1e-4, 0.01)
		p.Policy = pol
		p.Repair = dist.NewExponential(1.0 / 139)
		p.SpareRebuild = p.Repair
		exact := exactAvailability(t, p, 1e4)
		o := Options{Iterations: 100000, MissionTime: 1e4, Seed: 14, Kernel: KernelMemoryless, Bias: 3}
		fast, err := Run(p, o)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		o.noBatch = true
		plain, err := Run(p, o)
		if err != nil {
			t.Fatalf("%v noBatch: %v", pol, err)
		}
		if d := math.Abs(fast.Availability - exact); d > fast.HalfWidth {
			t.Errorf("%v: biased quiet-mission run %.9f ± %.3g misses the exact %.9f by %.3g",
				pol, fast.Availability, fast.HalfWidth, exact, d)
		}
		if gap := math.Abs(fast.Availability - plain.Availability); gap > fast.HalfWidth+plain.HalfWidth {
			t.Errorf("%v: biased quiet-mission %.9f vs cycle-by-cycle %.9f differ by %g, beyond the summed 99%% half-widths %g",
				pol, fast.Availability, plain.Availability, gap, fast.HalfWidth+plain.HalfWidth)
		}
	}
}

// TestQuietMissionMatchesCycleWalk tests quietMission directly
// against a cycle-by-cycle walk of the same alternating process: an
// OP hold of rate 1 (n·lambda), then one or two later phases, each
// phase's race marked with probability 0.1 to 0.4. A mark ends the
// cycle in a down interval of mean 0.5, then OP again. The walker
// under test fills one skip counter per phase, runs quietMission when
// the counters guarantee mu = T quiet cycles, and walks on from a
// hand-back with its counters reduced, as the kernels do; the
// reference draws every hold and a Bernoulli per race. Where a later
// phase's mean hold of 3.3 outlasts the OP hold, failure N rarely
// fits its slack and most quiet missions step down (about 0.7 steps
// per lifetime in the one-phase case); where the later holds are short
// and the mission holds one expected failure, about 4-5% of the
// lifetimes jump and hand back. The failure-count distribution (a
// two-sample chi-square), the mean downtime and the mean completed
// races of each phase must agree; quietMission weighs the races with
// ln = (1, 1024), which the test decodes back into the two counts.
func TestQuietMissionMatchesCycleWalk(t *testing.T) {
	const samples = 300000
	for _, c := range []struct {
		name     string
		mission  float64
		rates    []float64
		marks    []float64
		minJumps int
	}{
		{"one long phase", 3, []float64{0.3}, []float64{0.25}, 0},
		{"one short phase", 1, []float64{5}, []float64{0.4}, samples / 50},
		{"a long and a short phase", 2, []float64{0.3, 5}, []float64{0.1, 0.4}, 0},
		{"two short phases", 1, []float64{5, 8}, []float64{0.2, 0.3}, samples / 50},
	} {
		inv := make([]float64, len(c.rates))
		laws := make([]geom, len(c.rates))
		for ph := range c.rates {
			inv[ph], laws[ph] = 1/c.rates[ph], newGeom(c.marks[ph])
		}
		ln := []float64{1, 1024}[:len(c.rates)]
		type outcome struct {
			failures int
			races    [2]int
			down     float64
		}
		// walk goes on from time t: in OP, or in the first later phase
		// of a cycle whose failure has counted when exposed; hit runs
		// the race trial of phase ph.
		walk := func(r *xrand.Source, o *outcome, t float64, exposed bool, hit func(ph int) bool) {
			for {
				if !exposed {
					t += r.ExpFloat64()
					if t >= c.mission {
						return
					}
					o.failures++
				}
				exposed = false
				for ph := range inv {
					t += r.ExpFloat64() * inv[ph]
					if t >= c.mission {
						return
					}
					o.races[ph]++
					if hit(ph) {
						end := t + 0.5*r.ExpFloat64()
						o.down += math.Min(end, c.mission) - t
						t = end
						break
					}
				}
			}
		}

		sc := &scratch{mission: c.mission, pois: newPoissonTable(c.mission)}
		fast := make([]outcome, samples)
		jumps := 0
		for i := range fast {
			o := &fast[i]
			sc.src.SeedStream(1, uint64(i))
			var g [2]gap
			m := math.MaxInt
			for ph := range laws {
				g[ph].fill(&sc.src, laws[ph])
				m = min(m, g[ph].n)
			}
			t, exposed := 0.0, false
			if sc.quietRuns(m) {
				var st iterStats
				t, exposed = sc.quietMission(&st, m, inv, ln)
				o.failures = int(st.events.Failures)
				o.races[1] = int(st.logW / 1024)
				o.races[0] = int(st.logW) - 1024*o.races[1]
				if !exposed {
					continue
				}
				jumps++
				for ph := range laws {
					g[ph].n -= m
				}
			}
			walk(&sc.src, o, t, exposed, func(ph int) bool { return g[ph].hit(&sc.src, laws[ph]) })
		}
		ref := make([]outcome, samples)
		for i := range ref {
			r := xrand.NewStream(2, uint64(i))
			walk(r, &ref[i], 0, false, func(ph int) bool { return r.Float64() < c.marks[ph] })
		}

		if jumps < c.minJumps {
			t.Errorf("%s: %d of %d lifetimes jumped, want at least %d", c.name, jumps, samples, c.minJumps)
		}
		const bins = 12 // failure counts 0..10 and 11 or more
		var hf, hr [bins]float64
		for i := range fast {
			hf[min(fast[i].failures, bins-1)]++
			hr[min(ref[i].failures, bins-1)]++
		}
		chi2, df := 0.0, -1
		for b := range hf {
			if hf[b]+hr[b] > 0 {
				chi2 += (hf[b] - hr[b]) * (hf[b] - hr[b]) / (hf[b] + hr[b])
				df++
			}
		}
		// About 5 standard deviations of a chi-square with df degrees.
		if lim := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > lim {
			t.Errorf("%s: failure counts differ: chi-square %.1f on %d degrees of freedom (limit %.1f)\nquiet-mission %v\ncycle walk    %v",
				c.name, chi2, df, lim, hf, hr)
		}
		same := func(what string, f func(o *outcome) float64) {
			t.Helper()
			var sa, sb, qa, qb float64
			for i := range fast {
				a, b := f(&fast[i]), f(&ref[i])
				sa, sb, qa, qb = sa+a, sb+b, qa+a*a, qb+b*b
			}
			n := float64(samples)
			ma, mb := sa/n, sb/n
			se := math.Sqrt((qa/n-ma*ma)/n + (qb/n-mb*mb)/n)
			if d := math.Abs(ma - mb); d > 5*se {
				t.Errorf("%s: mean %s %.5f (quiet-mission) vs %.5f (cycle walk), beyond 5 standard errors %.5f",
					c.name, what, ma, mb, 5*se)
			}
		}
		same("downtime", func(o *outcome) float64 { return o.down })
		for ph := range inv {
			same(fmt.Sprintf("phase-%d races", ph+1), func(o *outcome) float64 { return float64(o.races[ph]) })
		}
	}
}

// TestIterationReplayCrossesRefillBoundaries pins iteration isolation
// on a reused scratch: an iteration's realization depends only on
// (seed, iteration), never on what a previous iteration left in the
// scratch. A warm scratch, reused for 60 iterations, must reproduce
// exactly what a cold scratch draws for the same iteration, on both
// kernels: the memoryless walkers and the generic clock walkers each
// keep their skip counters of their own. At these parameters an
// iteration walks hundreds of holds, each drawn straight off its
// stream.
func TestIterationReplayCrossesRefillBoundaries(t *testing.T) {
	const seed, mission = 99, 1e6
	for _, pol := range policies {
		for _, kern := range []Kernel{KernelMemoryless, KernelGeneric} {
			p := paramsFor(pol)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			warm := newScratch(&p, Options{MissionTime: mission, Kernel: kern})
			for it := 0; it < 60; it++ {
				got := warm.iterate(seed, it)
				cold := newScratch(&p, Options{MissionTime: mission, Kernel: kern})
				if want := cold.iterate(seed, it); got != want {
					t.Fatalf("%v/%v: iteration %d differs warm vs cold:\n%+v\n%+v", pol, kern, it, got, want)
				}
			}
		}
	}
}

// TestMemorylessIterationDrawsOnlyWhatItUses pins that a memoryless
// kernel takes each draw straight off the iteration's stream. At
// λ 1e-9 over a 1-hour mission no member fails, so an iteration draws
// its kernel's skip counters (geom.draw, race counters first, then the
// human-error counter) and one more variate, and must leave its stream
// exactly there, with no variate drawn ahead. That variate is the
// quiet-mission path's Poisson uniform (a count of 0) when the
// counters guarantee a quiet cycle, and the first OP hold's
// ExpFloat64 when a human-error counter of 0 keeps the path off; the
// 1000 iterations see both.
func TestMemorylessIterationDrawsOnlyWhatItUses(t *testing.T) {
	const seed, mission = 7, 1.0
	for _, pol := range policies {
		p := PaperDefaults(4, 1e-9, 0.01)
		p.Policy = pol
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		sc := newScratch(&p, Options{MissionTime: mission, Kernel: KernelMemoryless})
		var races []race
		switch pol {
		case AutoFailover:
			races = []race{sc.foK.exp1, sc.foK.opns}
		case DualParity:
			races = []race{sc.dpK.e1}
		default:
			races = []race{sc.convK.exp}
		}
		quiet, walked := 0, 0
		for it := 0; it < 1000; it++ {
			if st := sc.iterate(seed, it); st != (iterStats{}) {
				t.Fatalf("%v: iteration %d saw events within the first hold: %+v", pol, it, st)
			}
			want := xrand.NewStream(seed, uint64(it))
			m := math.MaxInt
			for _, rc := range races {
				m = min(m, rc.fail.draw(want).n)
			}
			m = min(m, sc.hep.draw(want).n)
			if sc.quietRuns(m) {
				quiet++
				want.Float64()
			} else {
				walked++
				want.ExpFloat64()
			}
			if sc.src != *want {
				t.Fatalf("%v: iteration %d did not leave its stream right after its %d skip counters and one variate",
					pol, it, len(races)+1)
			}
		}
		if quiet == 0 || walked == 0 {
			t.Errorf("%v: %d iterations took the quiet-mission path and %d walked the first hold; want both", pol, quiet, walked)
		}
	}
}

// TestGapTrialsAreBernoulli pins the skip counter against the trial
// sequence it stands for. The sentinel laws never touch the stream:
// p = 0 never fires and p = 1 always does. At p = 1e-300 every draw is
// censored ((1-p)^gapCap rounds to 1), so a counter that runs out is
// redrawn, never fired. At p in {0.3, 0.01, 1e-3} the successes in 2e6
// trials lie within 5 binomial sigma of 2e6·p, and the censored draws
// within 5 sigma of their share (1-p)^gapCap of the draws: about 53%
// at 0.01 and 94% at 1e-3.
func TestGapTrialsAreBernoulli(t *testing.T) {
	for _, c := range []struct {
		p    float64
		fire bool
	}{{0, false}, {1, true}} {
		l := newGeom(c.p)
		r := xrand.NewStream(5, 0)
		before := *r
		var g gap
		for i := 0; i < 1000; i++ {
			if g.hit(r, l) != c.fire {
				t.Fatalf("p=%v: trial %d fired %v", c.p, i, !c.fire)
			}
			if *r != before {
				t.Fatalf("p=%v: trial %d drew from the stream", c.p, i)
			}
		}
	}

	r := xrand.NewStream(5, 1)
	tiny := newGeom(1e-300)
	var g gap
	for i := 0; i < 10*gapCap; i++ {
		drew := g.spent()
		if g.hit(r, tiny) {
			t.Fatalf("p=1e-300: trial %d fired", i)
		}
		if drew && g.exact {
			t.Fatalf("p=1e-300: trial %d drew an uncensored counter", i)
		}
	}

	within := func(what string, got, n int, p float64) {
		t.Helper()
		mean := float64(n) * p
		if d, sd := math.Abs(float64(got)-mean), math.Sqrt(mean*(1-p)); d > 5*sd {
			t.Errorf("%s: %d of %d, expected %.1f ± %.1f (5 sigma)", what, got, n, mean, 5*sd)
		}
	}
	for _, p := range []float64{0.3, 0.01, 1e-3} {
		const trials = 2_000_000
		l := newGeom(p)
		r := xrand.NewStream(5, 2)
		var g gap
		hits, draws, censored := 0, 0, 0
		for i := 0; i < trials; i++ {
			drew := g.spent()
			hit := g.hit(r, l)
			if hit {
				hits++
			}
			if drew {
				draws++
				if !hit && !g.exact {
					censored++
				}
			}
		}
		within(fmt.Sprintf("p=%v successes", p), hits, trials, p)
		within(fmt.Sprintf("p=%v censored draws", p), censored, draws, math.Pow(1-p, gapCap))
	}
}

// TestScheduleIndependenceBatched repeats the schedule contract at
// paper mission scale, where the memoryless walkers run multi-chunk
// benign-cycle aggregation and walk many holds per iteration: worker
// count must not change a single drawn lifetime.
func TestScheduleIndependenceBatched(t *testing.T) {
	for _, pol := range policies {
		p := paramsFor(pol)
		base := Options{Iterations: 300, MissionTime: 1e6, Seed: 8, Workers: 1, Kernel: KernelMemoryless}
		ref, err := Run(p, base)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, workers := range []int{2, 5} {
			o := base
			o.Workers = workers
			got, err := Run(p, o)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", pol, workers, err)
			}
			if got.Events != ref.Events {
				t.Errorf("%v: events changed with workers=%d:\n%+v\n%+v",
					pol, workers, ref.Events, got.Events)
			}
			if d := math.Abs(got.Availability - ref.Availability); d > 1e-12 {
				t.Errorf("%v: availability drifted %g with workers=%d", pol, d, workers)
			}
		}
	}
}
