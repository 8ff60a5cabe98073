package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"herald/internal/dist"
)

// pinnedRealization is the Realization the digest table of
// TestRealizationPinned was pinned at.
const pinnedRealization = 3

// TestRealizationPinned pins every kernel's realization: for each
// policy and each walker (the memoryless kernel, its failure-biased
// form, the generic clock walker, the unbatched memoryless reference,
// and the generic walker under the Fig. 5 Weibull lifetime law) it
// hashes the Summary JSON of one small seeded run and compares the
// first 8 bytes of the SHA-256 with the table below. A refactor of a
// kernel must leave every digest in place. A deliberate realization
// change bumps Realization, re-pins the table and lists each re-pinned
// digest in CHANGES.md.
func TestRealizationPinned(t *testing.T) {
	if Realization != pinnedRealization {
		t.Fatalf("Realization is %d but the table was pinned at %d: re-pin the table for realization %d",
			Realization, pinnedRealization, Realization)
	}
	want := map[string]string{
		"conventional/memoryless":  "2732b0f9f3927a35",
		"conventional/bias-auto":   "aedae8166ec523e8",
		"conventional/generic":     "496344b9241f0324",
		"conventional/nobatch":     "e6e134165d121e53",
		"conventional/weibull":     "439e7c7de22f8cb2",
		"auto-failover/memoryless": "f8cdbf6c57411163",
		"auto-failover/bias-auto":  "4522a44da1ac5f3d",
		"auto-failover/generic":    "448393ec058da3cd",
		"auto-failover/nobatch":    "c6069a02ce604f61",
		"auto-failover/weibull":    "71db0d218b26ad8a",
		"dual-parity/memoryless":   "ac2f62b52958f65c",
		"dual-parity/bias-auto":    "39eca7fccd30761d",
		"dual-parity/generic":      "701407766ce1483a",
		"dual-parity/nobatch":      "e05177ab81986e9e",
		"dual-parity/weibull":      "cdc51e8453af8a02",
	}
	modes := []struct {
		name string
		set  func(*ArrayParams, *Options)
	}{
		{"memoryless", func(_ *ArrayParams, o *Options) { o.Kernel = KernelMemoryless }},
		{"bias-auto", func(_ *ArrayParams, o *Options) { o.Kernel = KernelMemoryless; o.Bias = BiasAuto }},
		{"generic", func(_ *ArrayParams, o *Options) { o.Kernel = KernelGeneric }},
		{"nobatch", func(_ *ArrayParams, o *Options) { o.Kernel = KernelMemoryless; o.noBatch = true }},
		{"weibull", func(p *ArrayParams, o *Options) {
			p.TTF = dist.WeibullFromMeanRate(1e-4, 1.21)
			o.Kernel = KernelGeneric
		}},
	}
	for _, pol := range policies {
		for _, m := range modes {
			name := pol.String() + "/" + m.name
			p := PaperDefaults(4, 1e-4, 0.01)
			p.Policy = pol
			o := Options{Iterations: 4096, MissionTime: 2e5, Seed: 20170327, Workers: 2}
			m.set(&p, &o)
			s, err := Run(p, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:8]); got != want[name] {
				t.Errorf("%s: Summary digest %s, want the pinned %s: the realization changed: bump sim.Realization and re-pin",
					name, got, want[name])
			}
		}
	}
}
