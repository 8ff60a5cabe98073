package model

import "testing"

// Analytic-kernel micro-benchmarks, timed by scripts/bench.sh and the
// CI bench gate (scripts/benchlib.sh lists the packages and the
// pattern).

// BenchmarkSteadyStateConventional measures one Fig. 2 model solve.
func BenchmarkSteadyStateConventional(b *testing.B) {
	p := Paper(4, 1e-6, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Conventional(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateFailover measures one 12-state Fig. 3 solve.
func BenchmarkSteadyStateFailover(b *testing.B) {
	p := PaperFailover(4, 1e-6, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Failover(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTTDL measures the absorbing-chain analysis.
func BenchmarkMTTDL(b *testing.B) {
	p := Paper(4, 1e-6, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MTTDL(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMission measures one finite-mission solve at availsim's
// default 1e6 h horizon, per policy: the 5-state conventional chain,
// the full 12-state Fig. 3 fail-over chain and the 6-state dual-parity
// chain.
func BenchmarkMission(b *testing.B) {
	for _, c := range []struct {
		name  string
		solve func() (*Result, error)
	}{
		{"conventional", func() (*Result, error) { return Conventional(Paper(4, 1e-6, 0.01)) }},
		{"failover", func() (*Result, error) { return Failover(PaperFailover(4, 1e-6, 0.01)) }},
		{"dualparity", func() (*Result, error) { return DualParity(Paper(6, 1e-6, 0.01)) }},
	} {
		res, err := c.solve()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := res.Mission(1e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
