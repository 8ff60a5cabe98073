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
const pinnedRealization = 2

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
		"conventional/memoryless":  "9e87a0aee3675913",
		"conventional/bias-auto":   "aedae8166ec523e8",
		"conventional/generic":     "df7bfd255317674e",
		"conventional/nobatch":     "973bc498c4433fe9",
		"conventional/weibull":     "15cd9cb48e7ac23f",
		"auto-failover/memoryless": "a516d9b9ef5e9db4",
		"auto-failover/bias-auto":  "4522a44da1ac5f3d",
		"auto-failover/generic":    "c1c30ceea2c52eb0",
		"auto-failover/nobatch":    "0cfcc0b77578992c",
		"auto-failover/weibull":    "9f287430d296ae7f",
		"dual-parity/memoryless":   "269dc6b90126325a",
		"dual-parity/bias-auto":    "39eca7fccd30761d",
		"dual-parity/generic":      "30e9c0c6ec45f588",
		"dual-parity/nobatch":      "2743c92c8a1dad04",
		"dual-parity/weibull":      "0f1285129e37e812",
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
