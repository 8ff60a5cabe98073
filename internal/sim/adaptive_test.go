package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"herald/internal/stats"
)

func adaptiveTestParams(pol Policy) ArrayParams {
	// High lambda / hep so CI-scale runs see plenty of downtime events.
	p := PaperDefaults(4, 1e-4, 0.02)
	p.Policy = pol
	return p
}

func summaryJSON(t *testing.T, s Summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oracleIterations returns the fixed-N oracle for a target half-width:
// the smallest canonical cell boundary of a cap-iteration run whose
// prefix fold reaches a reported (df = n-1) half-width at or below the
// target. It is computed from one fixed run's partials, independently
// of the adaptive machinery.
func oracleIterations(t *testing.T, p ArrayParams, o Options, target float64) int {
	t.Helper()
	oo := o
	oo.TargetHalfWidth = 0
	oo.MaxIters = 0
	parts, err := RunRange(p, oo, 0, oo.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	conf := oo.Confidence
	if conf == 0 {
		conf = 0.99
	}
	var acc stats.Accumulator
	for i := range parts {
		acc.Merge(&parts[i].Avail)
		if acc.N() >= 2 && acc.HalfWidth(conf) <= target {
			return parts[i].End
		}
	}
	return oo.Iterations
}

// TestAdaptiveStopsAtTarget is the seeded statistical acceptance test:
// on all three policies, an adaptive run stops early with achieved
// half-width at or below the target, within 2x of the fixed-N oracle's
// iteration count, at CI-friendly scales.
func TestAdaptiveStopsAtTarget(t *testing.T) {
	for _, pol := range []Policy{Conventional, AutoFailover, DualParity} {
		p := adaptiveTestParams(pol)
		o := Options{Iterations: 80000, MissionTime: 2e5, Seed: 20170311, Workers: 2}

		// Calibrate the target off a quarter-cap pilot so the oracle
		// lands well inside the cap.
		pilot, err := Run(p, Options{Iterations: 20000, MissionTime: o.MissionTime, Seed: o.Seed, Workers: 2})
		if err != nil {
			t.Fatalf("%v: pilot: %v", pol, err)
		}
		target := pilot.HalfWidth
		oracle := oracleIterations(t, p, o, target)
		if oracle >= o.Iterations {
			t.Fatalf("%v: oracle %d at cap; target %g miscalibrated", pol, oracle, target)
		}

		o.TargetHalfWidth = target
		s, err := Run(p, o)
		if err != nil {
			t.Fatalf("%v: adaptive run: %v", pol, err)
		}
		if s.HalfWidth > target {
			t.Errorf("%v: achieved half-width %g above target %g", pol, s.HalfWidth, target)
		}
		if !s.Converged {
			t.Errorf("%v: adaptive run did not report convergence", pol)
		}
		if s.Iterations >= o.Iterations {
			t.Errorf("%v: adaptive run did not stop early (%d of %d)", pol, s.Iterations, o.Iterations)
		}
		if s.Iterations > 2*oracle {
			t.Errorf("%v: adaptive stopped at %d iterations, over 2x the fixed-N oracle %d", pol, s.Iterations, oracle)
		}
		t.Logf("%v: target %.3g achieved %.3g at %d iterations (oracle %d, cap %d)",
			pol, target, s.HalfWidth, s.Iterations, oracle, o.Iterations)
	}
}

// TestAdaptivePaperConfigStopsEarly pins the acceptance criterion on
// the conventional paper configuration exactly as `availsim
// -target-halfwidth 2e-8 -iters 1000000` runs it: the adaptive run
// stops well before the cap with achieved half-width at or below the
// requested target, at the seeded, deterministic boundary.
func TestAdaptivePaperConfigStopsEarly(t *testing.T) {
	p := PaperDefaults(4, 1e-6, 0.001)
	o := Options{
		Iterations:      1_000_000,
		MissionTime:     1e6,
		Seed:            42,
		Workers:         2,
		Confidence:      0.99,
		TargetHalfWidth: 2e-8,
	}
	s, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations >= o.Iterations {
		t.Fatalf("paper-config adaptive run did not stop early (%d of %d)", s.Iterations, o.Iterations)
	}
	if !s.Converged || s.HalfWidth > o.TargetHalfWidth {
		t.Errorf("achieved half-width %g above target %g (converged=%v)", s.HalfWidth, o.TargetHalfWidth, s.Converged)
	}
	// The stopping boundary is a pure function of (params, options);
	// pin it so a silent change to the scan or rule shows up here.
	// (The value moves when a kernel's draw sequence is deliberately
	// restructured — realization changes are seed-like — most recently
	// for the aggregation crossover of sim.Realization 2.)
	if s.Iterations != 171908 {
		t.Errorf("stopped at %d iterations, want the pinned 171908", s.Iterations)
	}
}

// TestAdaptiveDeterministic pins the adaptive determinism contract:
// the stopping boundary and the Summary are bit-identical across
// worker counts, because the rule is evaluated on the canonical
// cell-order fold, never on arrival order.
func TestAdaptiveDeterministic(t *testing.T) {
	p := adaptiveTestParams(Conventional)
	base := Options{Iterations: 60000, MissionTime: 2e5, Seed: 99, TargetHalfWidth: 1.2e-5}
	var want string
	for i, workers := range []int{1, 2, 5} {
		o := base
		o.Workers = workers
		s, err := Run(p, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = summaryJSON(t, s)
			if s.Iterations >= base.Iterations {
				t.Fatalf("adaptive run hit the cap (%d); pick a looser target", s.Iterations)
			}
			continue
		}
		if got := summaryJSON(t, s); got != want {
			t.Errorf("workers=%d: summary diverged\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestAdaptiveFloorAndCap pins the MaxIters/Iterations bounds: the
// rule may not bind below the Iterations floor when MaxIters is set,
// and an unreachable target runs exactly to the cap with Converged
// false.
func TestAdaptiveFloorAndCap(t *testing.T) {
	p := adaptiveTestParams(Conventional)

	// A target so loose the rule would bind almost immediately — the
	// floor must hold it back to at least Iterations.
	o := Options{Iterations: 20000, MaxIters: 40000, MissionTime: 2e5, Seed: 5, Workers: 2, TargetHalfWidth: 1e-2}
	s, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations < 20000 {
		t.Errorf("rule bound at %d iterations, below the %d floor", s.Iterations, 20000)
	}
	if !s.Converged {
		t.Error("loose target did not converge")
	}

	// An unreachable target runs to the cap.
	o = Options{Iterations: 3000, MissionTime: 2e5, Seed: 5, Workers: 2, TargetHalfWidth: 1e-12}
	s, err = Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 3000 {
		t.Errorf("capped run kept %d iterations, want 3000", s.Iterations)
	}
	if s.Converged {
		t.Error("capped run claims convergence at an unreachable target")
	}
	// A capped adaptive run is the fixed-N run, bit for bit (modulo the
	// adaptive echo fields).
	fixed, err := Run(p, Options{Iterations: 3000, MissionTime: 2e5, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.TargetHalfWidth, s.Converged = 0, false
	if summaryJSON(t, s) != summaryJSON(t, fixed) {
		t.Error("capped adaptive summary diverged from the fixed-N run")
	}
}

// TestAdaptiveEventStarvedRunsToCap pins the Student-t safeguard: a
// configuration whose iterations almost never see downtime must not
// stop on a spuriously tight (zero-variance or event-starved)
// interval.
func TestAdaptiveEventStarvedRunsToCap(t *testing.T) {
	p := PaperDefaults(4, 1e-9, 0) // essentially no events at this scale
	o := Options{Iterations: 2000, MissionTime: 1e5, Seed: 11, Workers: 2, TargetHalfWidth: 1e-3}
	s, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 2000 {
		t.Errorf("event-starved adaptive run stopped at %d, want the 2000 cap", s.Iterations)
	}
	if s.Converged {
		t.Error("event-starved run certified convergence off a zero-variance interval")
	}
}

// TestOptionsAdaptiveValidation pins the new option constraints.
func TestOptionsAdaptiveValidation(t *testing.T) {
	valid := Options{Iterations: 100, MissionTime: 1e5, TargetHalfWidth: 1e-6, MaxIters: 200}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid adaptive options rejected: %v", err)
	}
	for name, o := range map[string]Options{
		"negative target":    {Iterations: 100, MissionTime: 1e5, TargetHalfWidth: -1},
		"NaN target":         {Iterations: 100, MissionTime: 1e5, TargetHalfWidth: math.NaN()},
		"inf target":         {Iterations: 100, MissionTime: 1e5, TargetHalfWidth: math.Inf(1)},
		"max without target": {Iterations: 100, MissionTime: 1e5, MaxIters: 200},
		"max below min":      {Iterations: 300, MissionTime: 1e5, TargetHalfWidth: 1e-6, MaxIters: 200},
		"negative max":       {Iterations: 100, MissionTime: 1e5, TargetHalfWidth: 1e-6, MaxIters: -1},
		"confidence one":     {Iterations: 100, MissionTime: 1e5, Confidence: 1},
		"NaN confidence":     {Iterations: 100, MissionTime: 1e5, Confidence: math.NaN()},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: options accepted", name)
		}
	}
}

// TestSummarizeArrivalOrderInvariance is the completion-order merging
// property test: any permutation of partial arrival order yields the
// same Summary as the sorted merge for a fixed N.
func TestSummarizeArrivalOrderInvariance(t *testing.T) {
	p := adaptiveTestParams(DualParity)
	o := Options{Iterations: 5000, MissionTime: 2e5, Seed: 31, Workers: 2, HistogramBins: 16}
	parts, err := RunRange(p, o, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Summarize(o, parts)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, base)

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		perm := append([]Partial(nil), parts...)
		switch trial {
		case 0: // exact reversal
			for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
				perm[i], perm[j] = perm[j], perm[i]
			}
		default:
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		got, err := Summarize(o, perm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g := summaryJSON(t, got); g != want {
			t.Fatalf("trial %d: permuted merge diverged\n got %s\nwant %s", trial, g, want)
		}
	}
}

// TestCheckPartialsRefusesNonCanonicalCells pins that the fold accepts
// only partials that are each one canonical cell of the run's cap. A
// worker running the same range under another cap computes the same
// iterations, but in cells of another width: folding them would build
// another merge tree and break byte-identity. So CheckPartials and
// Summarize must refuse them, while an adaptive fold, whose cells are
// those of its cap, still takes them.
func TestCheckPartialsRefusesNonCanonicalCells(t *testing.T) {
	p := adaptiveTestParams(Conventional)
	o := Options{Iterations: 2000, MissionTime: 2e5, Seed: 20170327, Workers: 2}
	wide := o
	wide.Iterations = 512_000 // cells of 2000 iterations
	parts, err := RunRange(p, wide, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("RunRange under the wide cap returned %d partials, want 1", len(parts))
	}
	if err := CheckPartials(p, o, 0, o.Iterations, parts); err == nil {
		t.Error("CheckPartials accepted a 2000-iteration partial for a run of 64-iteration cells")
	}
	if _, err := Summarize(o, parts); err == nil {
		t.Error("Summarize accepted a 2000-iteration partial for a run of 64-iteration cells")
	}
	// A whole cell shifted below zero is aligned but outside every run.
	cells, err := RunRange(p, o, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	cells[0].Start, cells[0].End = -64, 0
	if err := CheckPartials(p, o, -64, 0, cells); err == nil {
		t.Error("CheckPartials accepted a cell below iteration 0")
	}
	// A kept prefix folds under its cap's cells (perfbench replays
	// adaptive runs this way).
	prefix := o
	prefix.MaxIters, prefix.TargetHalfWidth = wide.Iterations, 1e-9
	if _, err := Summarize(prefix, parts); err != nil {
		t.Errorf("Summarize refused the cap's own cell: %v", err)
	}
}

// TestRunRangeStreamMatchesRunRange pins that the stoppable form is
// RunRange whatever the schedule: every worker count, with or without
// a (never closed) stop channel, returns the same cell partials in
// cell order.
func TestRunRangeStreamMatchesRunRange(t *testing.T) {
	p := adaptiveTestParams(AutoFailover)
	o := Options{Iterations: 4000, MissionTime: 2e5, Seed: 17, Workers: 1}
	want, err := RunRange(p, o, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	for _, workers := range []int{1, 3, 8} {
		for _, stop := range []chan struct{}{nil, make(chan struct{})} {
			oo := o
			oo.Workers = workers
			got, err := RunRangeUntil(p, oo, 0, oo.Iterations, stop)
			if err != nil {
				t.Fatal(err)
			}
			if gb, _ := json.Marshal(got); string(gb) != string(wb) {
				t.Errorf("workers=%d stop=%v: partials diverged from RunRange", workers, stop != nil)
			}
		}
	}
}

// TestRunRangeStreamStop pins cancellation: a stop closed before or
// during the run ends it early with ErrStopped.
func TestRunRangeStreamStop(t *testing.T) {
	p := adaptiveTestParams(Conventional)
	o := Options{Iterations: 5_000_000, MissionTime: 2e5, Seed: 23, Workers: 2}
	closed := make(chan struct{})
	close(closed)
	if _, err := RunRangeUntil(p, o, 0, o.Iterations, closed); err != ErrStopped {
		t.Fatalf("pre-stopped run returned %v, want ErrStopped", err)
	}
	stop := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(stop)
	}()
	if _, err := RunRangeUntil(p, o, 0, o.Iterations, stop); err != ErrStopped {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
}
