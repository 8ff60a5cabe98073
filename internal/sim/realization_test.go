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
const pinnedRealization = 8

// TestRealizationPinned pins every kernel's realization: for each
// policy and each walker (the memoryless kernel, its failure-biased
// form, the generic clock walker, the unbatched memoryless reference,
// the generic walker under the Fig. 5 Weibull lifetime law, the
// generic walker KernelAuto picks for an Erlang-2 repair and a
// lognormal undo law, and the memoryless kernel at a paper-sweep
// point) it hashes the Summary JSON of one small seeded run and
// compares the first 8 bytes of the SHA-256 with the table below. The
// paper-sweep rows run lambda 1e-5 and HEP 0.001 over 1e6 h, where
// most lifetimes resolve through quietMission; the other rows expect
// 80 failures per lifetime, past gapCap, and never reach it. A
// refactor of a kernel must leave every digest in place. A deliberate
// realization change bumps Realization, re-pins the table and lists
// each re-pinned digest in CHANGES.md.
func TestRealizationPinned(t *testing.T) {
	if Realization != pinnedRealization {
		t.Fatalf("Realization is %d but the table was pinned at %d: re-pin the table for realization %d",
			Realization, pinnedRealization, Realization)
	}
	want := map[string]string{
		"conventional/memoryless":  "e6eaff1e4ae5798d",
		"conventional/bias-auto":   "f192784878ce31d9",
		"conventional/generic":     "09d6b1b82ca2f8e0",
		"conventional/nobatch":     "6cb93e842e0e42b6",
		"conventional/weibull":     "4a50fda123123ce7",
		"auto-failover/memoryless": "d8fab5f356006bf4",
		"auto-failover/bias-auto":  "13fa95135f674665",
		"auto-failover/generic":    "1fad168bdb1c144b",
		"auto-failover/nobatch":    "2abab00f4cffaf05",
		"auto-failover/weibull":    "292104f176f48401",
		"dual-parity/memoryless":   "5bf20efa7843085f",
		"dual-parity/bias-auto":    "73e78de9c2eb088e",
		"dual-parity/generic":      "df3bc985fc0636f6",
		"dual-parity/nobatch":      "1fae417f8d66acba",
		"dual-parity/weibull":      "a05e95b0f6af6725",

		"conventional/erlang-lognormal":  "b2c0c827fdd67358",
		"auto-failover/erlang-lognormal": "6f8b33cbe50145c6",
		"dual-parity/erlang-lognormal":   "fee1a5e25b67cb31",

		"conventional/paper-rate":  "994746bfdea29292",
		"auto-failover/paper-rate": "d92e140072455171",
		"dual-parity/paper-rate":   "97a6ffc348557bbf",
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
		{"erlang-lognormal", func(p *ArrayParams, o *Options) {
			p.Repair = dist.NewErlang(2, 0.2)            // mean 10 h
			p.HERecovery = dist.NewLognormal(-0.32, 0.8) // mean 1 h
			o.Kernel = KernelAuto
		}},
		{"paper-rate", func(p *ArrayParams, o *Options) {
			p.TTF = dist.NewExponential(1e-5)
			p.HEP = 0.001
			o.MissionTime = 1e6
			o.Kernel = KernelMemoryless
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
