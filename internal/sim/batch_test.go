package sim

import (
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
// exactly what a cold scratch draws for the same iteration. At these
// parameters an iteration walks hundreds of holds, each drawn straight
// off its stream.
func TestIterationReplayCrossesRefillBoundaries(t *testing.T) {
	const seed, mission = 99, 1e6
	for _, pol := range policies {
		p := paramsFor(pol)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		warm := newScratch(&p, Options{Kernel: KernelMemoryless})
		for it := 0; it < 60; it++ {
			got := warm.iterate(seed, it, mission)
			cold := newScratch(&p, Options{Kernel: KernelMemoryless})
			if want := cold.iterate(seed, it, mission); got != want {
				t.Fatalf("%v: iteration %d differs warm vs cold:\n%+v\n%+v", pol, it, got, want)
			}
		}
	}
}

// TestMemorylessIterationDrawsOnlyWhatItUses pins that a memoryless
// kernel takes each hold straight off the iteration's stream. At
// λ 1e-9 over a 1-hour mission the first hold outlasts the mission, so
// an iteration draws its kernel's skip counters (drawGeomGap, race
// gaps first, then the human-error gap) and one ExpFloat64, and must
// leave its stream exactly there, with no variate drawn ahead.
func TestMemorylessIterationDrawsOnlyWhatItUses(t *testing.T) {
	const seed, mission = 7, 1.0
	for _, pol := range policies {
		p := PaperDefaults(4, 1e-9, 0.01)
		p.Policy = pol
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		sc := newScratch(&p, Options{Kernel: KernelMemoryless})
		var gaps []race
		switch pol {
		case AutoFailover:
			gaps = []race{sc.foK.exp1, sc.foK.opns}
		case DualParity:
			gaps = []race{sc.dpK.e1}
		default:
			gaps = []race{sc.convK.exp}
		}
		for it := 0; it < 100; it++ {
			if st := sc.iterate(seed, it, mission); st != (iterStats{}) {
				t.Fatalf("%v: iteration %d saw events within the first hold: %+v", pol, it, st)
			}
			want := xrand.NewStream(seed, uint64(it))
			for _, g := range gaps {
				drawGeomGap(want, g.gapInv, g.gapQCap)
			}
			drawGeomGap(want, sc.hepInv, sc.hepQCap)
			want.ExpFloat64()
			if sc.src != *want {
				t.Fatalf("%v: iteration %d did not leave its stream right after its %d skip counters and one ExpFloat64",
					pol, it, len(gaps)+1)
			}
		}
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
