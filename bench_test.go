package herald

// Benchmark harness: one benchmark per paper figure/claim (repro.All
// lists the experiment ids behind these targets), plus
// micro-benchmarks of the analytic and simulation kernels. Each figure
// benchmark runs the full experiment generator at a reduced
// Monte-Carlo scale and reports the reproduced headline metric via
// b.ReportMetric, so `go test -bench=.` regenerates the paper's result
// shapes.

import (
	"strconv"
	"testing"

	"herald/internal/model"
	"herald/internal/repro"
	"herald/internal/sim"
)

// benchOpts keeps figure benchmarks at laptop scale; the cmd/repro CLI
// runs the full configuration.
func benchOpts() repro.Options {
	return repro.Options{MCIterations: 3000, MissionTime: 1e6, Seed: 1, Workers: 0}
}

// BenchmarkFig4MCvsMarkov regenerates Fig. 4 (validation of the Markov
// model against Monte-Carlo simulation across failure rates).
func BenchmarkFig4MCvsMarkov(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := repro.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		within := 0
		for _, row := range tb.Rows {
			if row[5] == "yes" {
				within++
			}
		}
		b.ReportMetric(float64(within)/float64(len(tb.Rows)), "markov-in-ci-frac")
	}
}

// BenchmarkFig5HumanError regenerates Fig. 5 (availability vs hep with
// Weibull failure laws).
func BenchmarkFig5HumanError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := repro.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Availability drop (in nines) from hep=0 to hep=0.01 for the
		// first failure-rate pair.
		hep0, _ := strconv.ParseFloat(tb.Rows[0][4], 64)
		hep2, _ := strconv.ParseFloat(tb.Rows[2][4], 64)
		b.ReportMetric(hep0-hep2, "nines-drop-hep0.01")
	}
}

// BenchmarkFig6RAIDComparison regenerates Fig. 6 (RAID ranking at
// equal usable capacity).
func BenchmarkFig6RAIDComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := repro.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Ranking gap RAID5(3+1) - RAID1(1+1) at hep=0.01, lambda=1e-5
		// (positive = the paper's flip reproduced).
		r1, _ := strconv.ParseFloat(tables[0].Rows[0][6], 64)
		r5, _ := strconv.ParseFloat(tables[0].Rows[1][6], 64)
		b.ReportMetric(r5-r1, "flip-gap-nines")
	}
}

// BenchmarkFig7Failover regenerates Fig. 7 (conventional vs automatic
// fail-over policy).
func BenchmarkFig7Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := repro.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain, _ := strconv.ParseFloat(tb.Rows[2][3], 64)
		b.ReportMetric(gain, "failover-gain-x")
	}
}

// BenchmarkHeadlineUnderestimation regenerates the abstract's claim
// (up to 263x downtime underestimation).
func BenchmarkHeadlineUnderestimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := repro.Underestimation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for _, row := range tb.Rows {
			v, _ := strconv.ParseFloat(row[4], 64)
			if v > max {
				max = v
			}
		}
		b.ReportMetric(max, "max-underestimation-x")
	}
}

// BenchmarkAblationRates regenerates the interpretation-knob ablation
// (repro.Ablation).
func BenchmarkAblationRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Ablation(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityElasticities regenerates the designer-facing
// parameter elasticity ranking.
func BenchmarkSensitivityElasticities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Sensitivity(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Kernel micro-benchmarks
// ---------------------------------------------------------------------

// BenchmarkSteadyStateConventional measures one Fig. 2 model solve.
func BenchmarkSteadyStateConventional(b *testing.B) {
	p := model.Paper(4, 1e-6, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Conventional(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateFailover measures one 12-state Fig. 3 solve.
func BenchmarkSteadyStateFailover(b *testing.B) {
	p := model.PaperFailover(4, 1e-6, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Failover(p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMCIteration measures Monte-Carlo throughput for one policy and
// kernel on the default (exponential) configuration; 100 iterations
// per op. KernelAuto rows resolve to the memoryless specialization,
// the KernelGeneric rows pin the clock-walker fallback so the
// benchcheck gate watches both sides of the dispatch.
func benchMCIteration(b *testing.B, pol sim.Policy, k sim.Kernel) {
	p := sim.PaperDefaults(4, 1e-5, 0.01)
	p.Policy = pol
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, sim.Options{
			Iterations: 100, MissionTime: 1e6, Seed: uint64(i), Workers: 1, Kernel: k,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCIterationConventional measures Monte-Carlo throughput for
// the conventional policy (iterations/op is the configured count).
// Since the kernel dispatch layer this runs the memoryless walker.
func BenchmarkMCIterationConventional(b *testing.B) {
	benchMCIteration(b, sim.Conventional, sim.KernelAuto)
}

// BenchmarkMCIterationConventionalGeneric pins the generic clock
// walker on the same configuration.
func BenchmarkMCIterationConventionalGeneric(b *testing.B) {
	benchMCIteration(b, sim.Conventional, sim.KernelGeneric)
}

// BenchmarkMCIterationConventionalBias measures the importance-sampled
// memoryless walker on the same configuration (auto failure bias):
// the per-iteration cost of the weighted machinery relative to
// BenchmarkMCIterationConventional, still allocation-free.
func BenchmarkMCIterationConventionalBias(b *testing.B) {
	p := sim.PaperDefaults(4, 1e-5, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, sim.Options{
			Iterations: 100, MissionTime: 1e6, Seed: uint64(i), Workers: 1, Bias: sim.BiasAuto,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCIterationFailover measures Monte-Carlo throughput for the
// fail-over policy (memoryless walker via KernelAuto).
func BenchmarkMCIterationFailover(b *testing.B) {
	benchMCIteration(b, sim.AutoFailover, sim.KernelAuto)
}

// BenchmarkMCIterationFailoverGeneric pins the generic fail-over
// walker with its cached two-min phase scans.
func BenchmarkMCIterationFailoverGeneric(b *testing.B) {
	benchMCIteration(b, sim.AutoFailover, sim.KernelGeneric)
}

// BenchmarkMCIterationDualParity measures the dual-parity policy
// (memoryless walker via KernelAuto).
func BenchmarkMCIterationDualParity(b *testing.B) {
	benchMCIteration(b, sim.DualParity, sim.KernelAuto)
}

// BenchmarkMCIterationDualParityGeneric pins the generic dual-parity
// walker.
func BenchmarkMCIterationDualParityGeneric(b *testing.B) {
	benchMCIteration(b, sim.DualParity, sim.KernelGeneric)
}

// BenchmarkMTTDL measures the absorbing-chain analysis.
func BenchmarkMTTDL(b *testing.B) {
	p := model.Paper(4, 1e-6, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.MTTDL(p); err != nil {
			b.Fatal(err)
		}
	}
}
