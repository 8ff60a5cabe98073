package sim

import (
	"fmt"
	"math"
	"testing"

	"herald/internal/xrand"
)

// TestBatchedMatchesUnbatchedCI cross-validates benign-cycle
// aggregation statistically: an aggregated run and its cycle-by-cycle
// reference (Options.noBatch, a chunk rate of 0) consume the
// per-iteration streams differently, so they are distinct exact
// realizations of the same process — their confidence intervals must
// overlap. Run at 1e5 iterations per policy x kernel so the intervals
// are tight enough to catch a distributional bug in the Erlang chunks,
// their straddle resolution (resolveChunk), or the censored geometric
// skip counters.
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
			warm := newScratch(&p, Options{Kernel: kern})
			for it := 0; it < 60; it++ {
				got := warm.iterate(seed, it, mission)
				cold := newScratch(&p, Options{Kernel: kern})
				if want := cold.iterate(seed, it, mission); got != want {
					t.Fatalf("%v/%v: iteration %d differs warm vs cold:\n%+v\n%+v", pol, kern, it, got, want)
				}
			}
		}
	}
}

// TestMemorylessIterationDrawsOnlyWhatItUses pins that a memoryless
// kernel takes each hold straight off the iteration's stream. At
// λ 1e-9 over a 1-hour mission the first hold outlasts the mission, so
// an iteration draws its kernel's skip counters (geom.draw, race
// counters first, then the human-error counter) and one ExpFloat64,
// and must leave its stream exactly there, with no variate drawn
// ahead.
func TestMemorylessIterationDrawsOnlyWhatItUses(t *testing.T) {
	const seed, mission = 7, 1.0
	for _, pol := range policies {
		p := PaperDefaults(4, 1e-9, 0.01)
		p.Policy = pol
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		sc := newScratch(&p, Options{Kernel: KernelMemoryless})
		var races []race
		switch pol {
		case AutoFailover:
			races = []race{sc.foK.exp1, sc.foK.opns}
		case DualParity:
			races = []race{sc.dpK.e1}
		default:
			races = []race{sc.convK.exp}
		}
		for it := 0; it < 100; it++ {
			if st := sc.iterate(seed, it, mission); st != (iterStats{}) {
				t.Fatalf("%v: iteration %d saw events within the first hold: %+v", pol, it, st)
			}
			want := xrand.NewStream(seed, uint64(it))
			for _, rc := range races {
				rc.fail.draw(want)
			}
			sc.hep.draw(want)
			want.ExpFloat64()
			if sc.src != *want {
				t.Fatalf("%v: iteration %d did not leave its stream right after its %d skip counters and one ExpFloat64",
					pol, it, len(races)+1)
			}
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
