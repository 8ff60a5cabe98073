package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestRealizationPinned pins every kernel's realization: for each
// policy and each walker (the memoryless kernel, its failure-biased
// form, the generic clock walker and the unbatched memoryless
// reference) it hashes the Summary JSON of one small seeded run and
// compares the first 8 bytes of the SHA-256 with the table below. A
// refactor of a kernel must leave every digest in place. A deliberate
// realization change (a new sampler or draw order, as ROADMAP item 2
// plans) re-pins the table on purpose and lists each re-pinned digest
// in CHANGES.md.
func TestRealizationPinned(t *testing.T) {
	want := map[string]string{
		"conventional/memoryless":  "a13c1e40b08f5aac",
		"conventional/bias-auto":   "f56589ccadbdbf83",
		"conventional/generic":     "df7bfd255317674e",
		"conventional/nobatch":     "973bc498c4433fe9",
		"auto-failover/memoryless": "dc10cecccf4fe987",
		"auto-failover/bias-auto":  "9c5fd71fa2c04921",
		"auto-failover/generic":    "c1c30ceea2c52eb0",
		"auto-failover/nobatch":    "0cfcc0b77578992c",
		"dual-parity/memoryless":   "b20a2056beb38a5a",
		"dual-parity/bias-auto":    "cb77c15cfbc1f572",
		"dual-parity/generic":      "30e9c0c6ec45f588",
		"dual-parity/nobatch":      "2743c92c8a1dad04",
	}
	modes := []struct {
		name string
		set  func(*Options)
	}{
		{"memoryless", func(o *Options) { o.Kernel = KernelMemoryless }},
		{"bias-auto", func(o *Options) { o.Kernel = KernelMemoryless; o.Bias = BiasAuto }},
		{"generic", func(o *Options) { o.Kernel = KernelGeneric }},
		{"nobatch", func(o *Options) { o.Kernel = KernelMemoryless; o.noBatch = true }},
	}
	for _, pol := range policies {
		p := PaperDefaults(4, 1e-4, 0.01)
		p.Policy = pol
		for _, m := range modes {
			name := pol.String() + "/" + m.name
			o := Options{Iterations: 4096, MissionTime: 2e5, Seed: 20170327, Workers: 2}
			m.set(&o)
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
				t.Errorf("%s: Summary digest %s, want the pinned %s", name, got, want[name])
			}
		}
	}
}
