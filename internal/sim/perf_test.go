package sim

import (
	"math"
	"testing"

	"herald/internal/dist"
	"herald/internal/xrand"
)

func xrandNew(seed uint64) *xrand.Source { return xrand.New(seed) }

// policies lists every walker for the fast-path regression tests.
var policies = []Policy{Conventional, AutoFailover, DualParity}

func paramsFor(pol Policy) ArrayParams {
	p := PaperDefaults(6, 1e-4, 0.02)
	p.Policy = pol
	return p
}

// TestReplayDeterminismAllPolicies pins the fast-path engine's replay
// contract: two Runs with identical options are bit-identical, for
// every policy and kernel, including event counts and downtime
// moments.
func TestReplayDeterminismAllPolicies(t *testing.T) {
	for _, pol := range policies {
		for _, kern := range []Kernel{KernelGeneric, KernelMemoryless} {
			p := paramsFor(pol)
			o := Options{Iterations: 400, MissionTime: 2e5, Seed: 31, Workers: 3, Kernel: kern}
			a, err := Run(p, o)
			if err != nil {
				t.Fatalf("%v/%v: %v", pol, kern, err)
			}
			b, err := Run(p, o)
			if err != nil {
				t.Fatalf("%v/%v: %v", pol, kern, err)
			}
			if a != b {
				t.Errorf("%v/%v: identical runs diverged:\n%+v\n%+v", pol, kern, a, b)
			}
		}
	}
}

// TestScheduleIndependence checks that per-iteration streams decouple
// the drawn lifetimes from the worker count: event counts (exact
// integer sums) must match across schedules, and the availability may
// differ only by accumulator merge-order rounding.
func TestScheduleIndependence(t *testing.T) {
	for _, pol := range policies {
		p := paramsFor(pol)
		// KernelAuto resolves to the memoryless walkers here; the
		// schedule contract must hold for them exactly as it did for
		// the clock walkers.
		base := Options{Iterations: 500, MissionTime: 2e5, Seed: 77, Workers: 1}
		ref, err := Run(p, base)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, workers := range []int{2, 3, 7} {
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

// TestHotLoopZeroAllocs pins the per-iteration hot loop at zero
// allocations for every policy and every kernel (the generic clock
// walkers — conventional, fail-over, dual-parity — and each
// memoryless specialization): all scratch state is worker-resident
// and reused across iterations.
func TestHotLoopZeroAllocs(t *testing.T) {
	for _, pol := range policies {
		for _, kern := range []Kernel{KernelGeneric, KernelMemoryless} {
			p := paramsFor(pol)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			sc := newScratch(&p, Options{MissionTime: 1e5, Kernel: kern})
			if sc.memoryless != (kern == KernelMemoryless) {
				t.Fatalf("%v/%v: kernel not resolved as requested", pol, kern)
			}
			if kern == KernelMemoryless && sc.pois == nil {
				t.Fatalf("%v: no quiet-mission table at mu 60", pol)
			}
			it := 0
			allocs := testing.AllocsPerRun(300, func() {
				_ = sc.iterate(123, it)
				it++
			})
			if allocs != 0 {
				t.Errorf("%v/%v: hot loop allocates %.1f per iteration, want 0", pol, kern, allocs)
			}
		}
	}
}

// TestHotLoopZeroAllocsNonExponential covers the generic sampler path
// (Weibull TTF, a lognormal repair, gamma undo and restore laws at a
// boosted and an unboosted shape): every draw through a law's Sample
// must also stay allocation-free.
func TestHotLoopZeroAllocsNonExponential(t *testing.T) {
	p := paramsFor(Conventional)
	p.TTF = dist.WeibullFromMeanRate(1e-4, 1.21)
	p.Repair = dist.LognormalFromMeanMedian(10, 6)
	p.HERecovery = dist.NewGamma(0.5, 0.5)
	p.TapeRestore = dist.NewGamma(2.6, 0.1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := newScratch(&p, Options{MissionTime: 1e5, Kernel: KernelAuto})
	if sc.memoryless {
		t.Fatal("non-exponential config specialized to the memoryless kernel")
	}
	it := 0
	allocs := testing.AllocsPerRun(300, func() {
		_ = sc.iterate(123, it)
		it++
	})
	if allocs != 0 {
		t.Errorf("generic-path hot loop allocates %.1f per iteration, want 0", allocs)
	}
}

// TestGeometricHEPSkipMatchesBernoulli verifies the skip-sampled
// human-error process: the per-service error frequency must match HEP.
func TestGeometricHEPSkipMatchesBernoulli(t *testing.T) {
	p := paramsFor(Conventional)
	p.HEP = 0.05
	s, err := Run(p, Options{Iterations: 4000, MissionTime: 1e5, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Services ~= failures that were repaired; errors/services ~ HEP.
	services := float64(s.Events.Failures - s.Events.DoubleFailures)
	ratio := float64(s.Events.HumanErrors) / services
	if math.Abs(ratio-p.HEP) > 0.012 {
		t.Errorf("human error frequency %v, want ~%v", ratio, p.HEP)
	}
}

// TestTwoMin4MatchesScan cross-checks the 4-member tournament against
// the general scan, including tie-heavy inputs where first-index-wins
// ordering matters.
func TestTwoMin4MatchesScan(t *testing.T) {
	r := xrandNew(9)
	f := make([]float64, 4)
	for trial := 0; trial < 200000; trial++ {
		for j := range f {
			f[j] = float64(r.Intn(6)) // small range to exercise ties
		}
		a1, b1, c1, d1 := twoMin(f)
		a2, b2, c2, d2 := twoMin4(f)
		if a1 != a2 || b1 != b2 || c1 != c2 || d1 != d2 {
			t.Fatalf("%v: scan (%d,%v,%d,%v) vs tournament (%d,%v,%d,%v)",
				f, a1, b1, c1, d1, a2, b2, c2, d2)
		}
	}
}
