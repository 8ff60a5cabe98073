package sim

import (
	"testing"

	"herald/internal/dist"
)

// Kernel micro-benchmarks, timed by scripts/bench.sh and the CI bench
// gate (scripts/benchlib.sh lists the packages and the pattern).

// benchMCIteration measures Monte-Carlo throughput for one policy and
// kernel on the default (exponential) configuration; 100 iterations
// per op. KernelAuto rows resolve to the memoryless specialization,
// the KernelGeneric rows pin the clock-walker fallback so the
// benchcheck gate watches both sides of the dispatch.
func benchMCIteration(b *testing.B, pol Policy, k Kernel) {
	p := PaperDefaults(4, 1e-5, 0.01)
	p.Policy = pol
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Options{
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
	benchMCIteration(b, Conventional, KernelAuto)
}

// BenchmarkMCIterationConventionalGeneric pins the generic clock
// walker on the same configuration.
func BenchmarkMCIterationConventionalGeneric(b *testing.B) {
	benchMCIteration(b, Conventional, KernelGeneric)
}

// BenchmarkMCIterationConventionalBias measures the importance-sampled
// memoryless walker on the same configuration (auto failure bias):
// the per-iteration cost of the weighted machinery relative to
// BenchmarkMCIterationConventional, still allocation-free.
func BenchmarkMCIterationConventionalBias(b *testing.B) {
	p := PaperDefaults(4, 1e-5, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Options{
			Iterations: 100, MissionTime: 1e6, Seed: uint64(i), Workers: 1, Bias: BiasAuto,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCIterationFailover measures Monte-Carlo throughput for the
// fail-over policy (memoryless walker via KernelAuto).
func BenchmarkMCIterationFailover(b *testing.B) {
	benchMCIteration(b, AutoFailover, KernelAuto)
}

// BenchmarkMCIterationFailoverGeneric pins the generic fail-over
// walker with its cached two-min phase scans.
func BenchmarkMCIterationFailoverGeneric(b *testing.B) {
	benchMCIteration(b, AutoFailover, KernelGeneric)
}

// BenchmarkMCIterationDualParity measures the dual-parity policy
// (memoryless walker via KernelAuto).
func BenchmarkMCIterationDualParity(b *testing.B) {
	benchMCIteration(b, DualParity, KernelAuto)
}

// BenchmarkMCIterationDualParityGeneric pins the generic dual-parity
// walker.
func BenchmarkMCIterationDualParityGeneric(b *testing.B) {
	benchMCIteration(b, DualParity, KernelGeneric)
}

// benchCell times the per-iteration loop alone at the paper's
// operating point, where almost every lifetime sees no downtime: one
// worker's scratch is built once, and each op accumulates the 4096
// iterations of a fresh seed into one cell partial, allocating
// nothing.
func benchCell(b *testing.B, p ArrayParams, o Options) {
	o.Iterations, o.Workers = 4096, 1
	opts, _, err := prepareRange(&p, &o, 0, o.Iterations)
	if err != nil {
		b.Fatal(err)
	}
	sc := newScratch(&p, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i)
		_ = sc.runCell(Range{Start: 0, End: o.Iterations}, opts, 0)
	}
}

// BenchmarkMCIterationPaperRate measures the conventional memoryless
// walker at lambda 1e-6, HEP 0.001 over 87,600 h, where most lifetimes
// see no failure.
func BenchmarkMCIterationPaperRate(b *testing.B) {
	benchCell(b, PaperDefaults(4, 1e-6, 0.001), Options{MissionTime: 87600})
}

// BenchmarkMCIterationPaperMission measures the conventional
// memoryless walker at precision-tcp's unbiased point, lambda 1e-6 and
// HEP 0.001 over 1e6 h, the mission both perfbench workloads run:
// about four failures per lifetime, and nearly every lifetime resolved
// by quietMission.
func BenchmarkMCIterationPaperMission(b *testing.B) {
	benchCell(b, PaperDefaults(4, 1e-6, 0.001), Options{MissionTime: 1e6})
}

// BenchmarkMCIterationPaperRateBias measures the importance-sampled
// walker at lambda 1e-6, HEP 0, auto bias, over 1e6 h.
func BenchmarkMCIterationPaperRateBias(b *testing.B) {
	benchCell(b, PaperDefaults(4, 1e-6, 0), Options{MissionTime: 1e6, Bias: BiasAuto})
}

// BenchmarkMCIterationWeibull measures the generic conventional walker
// under paper-sweep's steepest Fig. 5 point (Weibull lifetimes of mean
// rate 7.96e-6 at shape 1.21, HEP 0.01, 1e6 h): each iteration's clock
// fill and every later lifetime draw go through Weibull.Sample.
func BenchmarkMCIterationWeibull(b *testing.B) {
	p := PaperDefaults(4, 7.96e-6, 0.01)
	p.TTF = dist.WeibullFromMeanRate(7.96e-6, 1.21)
	benchCell(b, p, Options{MissionTime: 1e6})
}
