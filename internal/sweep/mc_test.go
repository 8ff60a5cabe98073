package sweep

import (
	"encoding/json"
	"testing"

	"herald/internal/shard"
	"herald/internal/sim"
)

// TestMonteCarloMatchesSolo pins the sweep coordinator's determinism:
// every pipelined point is byte-identical to running it alone, labels
// and order are preserved, and completion offsets are positive.
func TestMonteCarloMatchesSolo(t *testing.T) {
	mk := func(pol sim.Policy, hep float64) MCPoint {
		p := sim.PaperDefaults(4, 1e-4, hep)
		p.Policy = pol
		return MCPoint{
			Label:   pol.String(),
			Params:  p,
			Options: sim.Options{Iterations: 2000, MissionTime: 2e5, Seed: 20170327, Workers: 2},
		}
	}
	points := []MCPoint{
		mk(sim.Conventional, 0.02),
		mk(sim.AutoFailover, 0.02),
		mk(sim.DualParity, 0.02),
	}
	// The middle point runs adaptively: mixed sweeps are the common
	// shape once -target-halfwidth lands in repro.
	points[1].Options.TargetHalfWidth = 2e-5
	points[1].Options.Iterations = 60000
	// The last point is the first with the kernel auto resolves to: the
	// same run, so the same fingerprint, the one availserve reports.
	points = append(points, points[0])
	points[3].Options.Kernel = sim.KernelMemoryless

	var want []string
	for _, pt := range points {
		s, err := sim.Run(pt.Params, pt.Options)
		if err != nil {
			t.Fatalf("%s: solo run: %v", pt.Label, err)
		}
		b, _ := json.Marshal(s)
		want = append(want, string(b))
	}

	workers := []shard.Worker{
		shard.NewInProcessWorker("a", 1),
		shard.NewInProcessWorker("b", 1),
	}
	res, err := MonteCarlo(points, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(points) {
		t.Fatalf("sweep returned %d results, want %d", len(res), len(points))
	}
	for i, r := range res {
		if r.Label != points[i].Label {
			t.Errorf("point %d: label %q, want %q", i, r.Label, points[i].Label)
		}
		b, _ := json.Marshal(r.Summary)
		if string(b) != want[i] {
			t.Errorf("point %d (%s): pipelined summary diverged\n got %s\nwant %s", i, r.Label, b, want[i])
		}
		if r.Done <= 0 {
			t.Errorf("point %d: non-positive completion offset %v", i, r.Done)
		}
	}
	if !res[1].Stats.StoppedEarly {
		t.Error("adaptive middle point did not stop early")
	}
	if res[0].Fingerprint == "" || res[0].Fingerprint != res[3].Fingerprint {
		t.Errorf("auto fingerprint %q, memoryless twin %q: want one non-empty value", res[0].Fingerprint, res[3].Fingerprint)
	}
}

// TestMonteCarloEmpty pins the trivial edge.
func TestMonteCarloEmpty(t *testing.T) {
	res, err := MonteCarlo(nil, []shard.Worker{shard.NewInProcessWorker("w", 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty sweep returned %d results", len(res))
	}
}
