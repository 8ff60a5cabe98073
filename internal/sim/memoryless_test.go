package sim

import (
	"math"
	"strings"
	"testing"

	"herald/internal/dist"
)

// These tests pin the kernel dispatch layer: which configurations
// specialize, that forcing an impossible specialization fails loudly,
// and — the correctness contract of the whole layer — that the
// rate-based memoryless walkers are statistically indistinguishable
// from the generic clock walkers and agree with the internal/markov
// closed forms on memoryless configurations.

func TestKernelResolution(t *testing.T) {
	exp := PaperDefaults(4, 1e-4, 0.01)
	cases := []struct {
		name string
		p    ArrayParams
		req  Kernel
		want Kernel
	}{
		{"auto specializes exponential", exp, KernelAuto, KernelMemoryless},
		{"generic forces clocks", exp, KernelGeneric, KernelGeneric},
		{"memoryless honored", exp, KernelMemoryless, KernelMemoryless},
		{"weibull shape 1 is memoryless", func() ArrayParams {
			p := exp
			p.TTF = dist.WeibullFromMeanRate(1e-4, 1)
			return p
		}(), KernelAuto, KernelMemoryless},
		{"erlang stage 1 is memoryless", func() ArrayParams {
			p := exp
			p.Repair = dist.NewErlang(1, 0.1)
			return p
		}(), KernelAuto, KernelMemoryless},
		{"weibull wear-out falls back", func() ArrayParams {
			p := exp
			p.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
			return p
		}(), KernelAuto, KernelGeneric},
		{"lognormal undo falls back", func() ArrayParams {
			p := exp
			p.HERecovery = dist.NewLognormal(0, 1)
			return p
		}(), KernelAuto, KernelGeneric},
		{"hep 0 ignores the undo law", func() ArrayParams {
			p := exp
			p.HEP = 0
			p.HERecovery = dist.NewLognormal(0, 1)
			return p
		}(), KernelAuto, KernelMemoryless},
		{"failover checks the spare laws", func() ArrayParams {
			p := exp
			p.Policy = AutoFailover
			p.SpareRebuild = dist.LognormalFromMeanMedian(10, 6)
			return p
		}(), KernelAuto, KernelGeneric},
	}
	for _, c := range cases {
		got, err := ResolveKernel(c.p, c.req)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: resolved %v, want %v", c.name, got, c.want)
		}
	}
}

// opaque hides a law from dist.Memoryless: it draws, and answers every
// other method, through the embedded law, but is none of the types
// Memoryless recognizes.
type opaque struct{ dist.Distribution }

// TestGenericWalkersDrawEachLawThroughItsSample pins the generic
// walkers' one draw path per law: whether dist.Memoryless recognizes a
// law must not change how a generic run draws it. For each policy, a
// run with a shape-1 Weibull TTF and a shape-1 Gamma repair, both
// memoryless, must marshal to the same Summary bytes as the same run
// with every law hidden from Memoryless.
func TestGenericWalkersDrawEachLawThroughItsSample(t *testing.T) {
	for _, pol := range policies {
		p := PaperDefaults(4, 1e-4, 0.01)
		p.Policy = pol
		p.TTF = dist.NewWeibull(1, 1e4)
		p.Repair = dist.NewGamma(1, 0.1)
		hidden := p
		for _, d := range []*dist.Distribution{&hidden.TTF, &hidden.Repair, &hidden.TapeRestore,
			&hidden.HERecovery, &hidden.SpareRebuild, &hidden.SpareSwap} {
			*d = opaque{*d}
		}
		o := Options{Iterations: 4096, MissionTime: 2e5, Seed: 20170327, Workers: 2, Kernel: KernelGeneric}
		var got [2]string
		for i, q := range []ArrayParams{p, hidden} {
			s, err := Run(q, o)
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			got[i] = summaryJSON(t, s)
		}
		if got[0] != got[1] {
			t.Errorf("%v: the recognized laws realize\n%s\nand the same laws hidden from dist.Memoryless\n%s", pol, got[0], got[1])
		}
	}
}

func TestForcedMemorylessRejectsGenericLaws(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	p.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
	if _, err := ResolveKernel(p, KernelMemoryless); err == nil {
		t.Error("ResolveKernel accepted a Weibull TTF under KernelMemoryless")
	}
	_, err := Run(p, Options{Iterations: 10, MissionTime: 1e4, Kernel: KernelMemoryless})
	if err == nil {
		t.Fatal("Run accepted a Weibull TTF under KernelMemoryless")
	}
	if !strings.Contains(err.Error(), "exponential") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestKernelOptionValidation(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	if _, err := Run(p, Options{Iterations: 10, MissionTime: 100, Kernel: Kernel(9)}); err == nil {
		t.Error("unknown kernel accepted")
	}
	if ParseKernelMust(t, "auto") != KernelAuto ||
		ParseKernelMust(t, "generic") != KernelGeneric ||
		ParseKernelMust(t, "memoryless") != KernelMemoryless {
		t.Error("ParseKernel mapping wrong")
	}
	if _, err := ParseKernel("ctmc"); err == nil {
		t.Error("ParseKernel accepted an unknown token")
	}
	for _, k := range []Kernel{KernelAuto, KernelGeneric, KernelMemoryless, Kernel(9)} {
		if k.String() == "" {
			t.Errorf("empty name for kernel %d", int(k))
		}
	}
}

func ParseKernelMust(t *testing.T, s string) Kernel {
	t.Helper()
	k, err := ParseKernel(s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// equivCase is one policy's configuration for the kernel equivalence
// sweep. Rates are inflated against the paper defaults so that 1e5
// iterations produce dense second-order statistics.
type equivCase struct {
	name string
	p    ArrayParams
}

func equivCases() []equivCase {
	conv := PaperDefaults(4, 1e-4, 0.01)
	fo := PaperDefaults(4, 1e-4, 0.01)
	fo.Policy = AutoFailover
	dp := PaperDefaults(6, 3e-4, 0.02)
	dp.Policy = DualParity
	return []equivCase{{"conventional", conv}, {"failover", fo}, {"dualparity", dp}}
}

// TestMemorylessMatchesGenericCIOverlap is the acceptance gate of the
// specialization: at 1e5 iterations per kernel, the generic and
// memoryless estimates of availability must have overlapping 99%
// confidence intervals, the downtime means must agree to a few
// percent, and the per-iteration event frequencies must match within
// their sampling noise — for every policy.
func TestMemorylessMatchesGenericCIOverlap(t *testing.T) {
	const iters = 100000
	for _, c := range equivCases() {
		o := Options{Iterations: iters, MissionTime: 2e5, Confidence: 0.99}
		og := o
		og.Seed, og.Kernel = 1701, KernelGeneric
		om := o
		om.Seed, om.Kernel = 1702, KernelMemoryless
		g, err := Run(c.p, og)
		if err != nil {
			t.Fatalf("%s generic: %v", c.name, err)
		}
		m, err := Run(c.p, om)
		if err != nil {
			t.Fatalf("%s memoryless: %v", c.name, err)
		}

		if d := math.Abs(g.Availability - m.Availability); d > g.HalfWidth+m.HalfWidth {
			t.Errorf("%s: availability CIs do not overlap: generic %v±%v vs memoryless %v±%v",
				c.name, g.Availability, g.HalfWidth, m.Availability, m.HalfWidth)
		}
		relCheck := func(metric string, a, b, tol float64) {
			if a == 0 && b == 0 {
				return
			}
			if d := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); d > tol {
				t.Errorf("%s: %s differs %.1f%% (generic %v vs memoryless %v, tol %.0f%%)",
					c.name, metric, 100*d, a, b, 100*tol)
			}
		}
		relCheck("mean DU downtime", g.MeanDowntimeDU, m.MeanDowntimeDU, 0.10)
		relCheck("mean DL downtime", g.MeanDowntimeDL, m.MeanDowntimeDL, 0.10)
		relCheck("failures", float64(g.Events.Failures), float64(m.Events.Failures), 0.01)
		relCheck("double failures", float64(g.Events.DoubleFailures), float64(m.Events.DoubleFailures), 0.10)
		relCheck("human errors", float64(g.Events.HumanErrors), float64(m.Events.HumanErrors), 0.05)
		relCheck("undo attempts", float64(g.Events.UndoAttempts), float64(m.Events.UndoAttempts), 0.05)
		relCheck("crashes", float64(g.Events.Crashes), float64(m.Events.Crashes), 0.30)
	}
}

// TestMemorylessMatchesCTMC closes the triangle: the specialized
// kernels must agree with the closed-form CTMC solutions the paper
// validates against — the same assertion the generic walkers already
// satisfy in sim_test.go / dualparity_test.go.
func TestMemorylessMatchesCTMC(t *testing.T) {
	run := func(p ArrayParams) Summary {
		t.Helper()
		s, err := Run(p, Options{
			Iterations: 3000, MissionTime: 2e5, Seed: 12345, Workers: 4,
			Confidence: 0.99, Kernel: KernelMemoryless,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cp := PaperDefaults(4, 1e-4, 0.01)
	assertWithinCI(t, "memoryless conventional", run(cp), cp)

	fp := PaperDefaults(4, 1e-4, 0.02)
	fp.Policy = AutoFailover
	assertWithinCI(t, "memoryless failover", run(fp), fp)

	dp := PaperDefaults(6, 3e-4, 0.02)
	dp.Policy = DualParity
	assertWithinCI(t, "memoryless dual parity", run(dp), dp)
}

// TestMemorylessEdgeBehaviors ports the generic walkers' edge pins to
// the specialized kernels: hep=1 missions terminate with sane
// availability, and downtime never exceeds a short mission.
func TestMemorylessEdgeBehaviors(t *testing.T) {
	for _, c := range equivCases() {
		p := c.p
		p.HEP = 1
		s, err := Run(p, Options{
			Iterations: 200, MissionTime: 1e5, Seed: 8, Kernel: KernelMemoryless,
		})
		if err != nil {
			t.Fatalf("%s hep=1: %v", c.name, err)
		}
		if s.Availability < 0 || s.Availability >= 1 {
			t.Errorf("%s hep=1: availability = %v", c.name, s.Availability)
		}
		if s.MeanDowntimeDU <= 0 {
			t.Errorf("%s hep=1: expected DU downtime", c.name)
		}

		p = c.p
		p.TTF = dist.NewExponential(0.5)
		s, err = Run(p, Options{
			Iterations: 500, MissionTime: 10, Seed: 9, Kernel: KernelMemoryless,
		})
		if err != nil {
			t.Fatalf("%s short mission: %v", c.name, err)
		}
		if s.MeanDowntimeDU+s.MeanDowntimeDL > 10+1e-9 {
			t.Errorf("%s: downtime %v exceeds 10h mission", c.name,
				s.MeanDowntimeDU+s.MeanDowntimeDL)
		}
	}
}
