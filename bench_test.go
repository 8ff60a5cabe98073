package herald

// Benchmark harness: one benchmark per paper figure/claim (repro.All
// lists the experiment ids behind these targets). Each figure
// benchmark runs the full experiment generator at a reduced
// Monte-Carlo scale and reports the reproduced headline metric via
// b.ReportMetric, so `go test -bench=.` regenerates the paper's result
// shapes. The kernels' micro-benchmarks live next to the code they
// time: MCIteration* in internal/sim, SteadyState*, MTTDL and Mission
// in internal/model.

import (
	"strconv"
	"testing"

	"herald/internal/repro"
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
