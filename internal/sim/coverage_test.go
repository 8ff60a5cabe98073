package sim

import (
	"math"
	"testing"
)

// TestIntervalsCoverAtPaperRates pins that the reported 99% interval
// covers the exact answer. Each point runs seeds 1000-1299 fixed-N on
// the memoryless kernel and scores each Summary against sim.Exact; at
// a true 99%, 300 runs cover about 297 on average and at least 293
// after 2.58 binomial standard errors. The first three points sit at
// the paper's lambda 1e-6 over 87,600 h, where most runs see no
// downtime at all; the fourth is event-rich.
func TestIntervalsCoverAtPaperRates(t *testing.T) {
	withPolicy := func(p ArrayParams, pol Policy) ArrayParams {
		p.Policy = pol
		return p
	}
	for _, c := range []struct {
		name    string
		p       ArrayParams
		iters   int
		mission float64
	}{
		{"conventional, lambda 1e-6, HEP 0.001", PaperDefaults(4, 1e-6, 0.001), 2000, 87600},
		{"fail-over, lambda 1e-6, HEP 0.001", withPolicy(PaperDefaults(4, 1e-6, 0.001), AutoFailover), 2000, 87600},
		{"dual parity, 6 disks, lambda 1e-6, HEP 0.001", withPolicy(PaperDefaults(6, 1e-6, 0.001), DualParity), 2000, 87600},
		{"conventional, lambda 1e-4, HEP 0.01, 2e5 h", PaperDefaults(4, 1e-4, 0.01), 2048, 2e5},
	} {
		exact := exactAvailability(t, c.p, c.mission)
		covered := 0
		for seed := uint64(1000); seed < 1300; seed++ {
			s, err := Run(c.p, Options{Iterations: c.iters, MissionTime: c.mission, Seed: seed,
				Workers: 2, Confidence: 0.99, Kernel: KernelMemoryless})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(s.Availability-exact) <= s.HalfWidth {
				covered++
			}
		}
		t.Logf("%s: %d of 300 covered", c.name, covered)
		if covered < 293 {
			t.Errorf("%s: the 99%% interval covered the exact answer in %d of 300 runs, want at least 293", c.name, covered)
		}
	}
}
