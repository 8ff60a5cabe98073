package dist

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"herald/internal/xrand"
)

// mtDrawReference is a plain transcription of the Marsaglia-Tsang draw
// as this package wrote it before the draw moved into
// xrand.Source.MarsagliaTsang: a NormFloat64, an OpenFloat64, the
// squeeze, then the log test.
func mtDrawReference(r *xrand.Source, d, c float64) float64 {
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.OpenFloat64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// referenceConstants are Marsaglia-Tsang's d and c for a shape a >= 1.
func referenceConstants(a float64) (d, c float64) {
	d = a - 1.0/3
	return d, 1 / (3 * math.Sqrt(d))
}

// TestMarsagliaTsangMatchesReference pins the register-resident draw
// to the reference transcription: for every cached Erlang stage count,
// and for Gamma.Sample at a boosted shape below 1 and at an unboosted
// one, a million draws are bit-equal and leave the stream at the same
// position.
func TestMarsagliaTsangMatchesReference(t *testing.T) {
	const n = 1_000_000
	for k := 2; k <= erlangMaxCached; k++ {
		k := k
		t.Run(fmt.Sprintf("erlang-%d", k), func(t *testing.T) {
			t.Parallel()
			d, c := referenceConstants(float64(k))
			got, want := xrand.NewStream(uint64(k), 21), xrand.NewStream(uint64(k), 21)
			for i := 0; i < n; i++ {
				a, b := ErlangFloat64(got, k), mtDrawReference(want, d, c)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("draw %d: %v, reference %v", i, a, b)
				}
			}
			if *got != *want {
				t.Fatal("the stream ended at another position than the reference's")
			}
		})
	}

	for _, shape := range []float64{0.5, 2.6} {
		shape := shape
		t.Run(fmt.Sprintf("gamma-%g", shape), func(t *testing.T) {
			t.Parallel()
			const rate = 3.0
			g := NewGamma(shape, rate)
			boosted := shape < 1
			d, c := referenceConstants(shape)
			if boosted {
				d, c = referenceConstants(shape + 1)
			}
			got, want := xrand.NewStream(5, 21), xrand.NewStream(5, 21)
			for i := 0; i < n; i++ {
				a := g.Sample(got)
				b := mtDrawReference(want, d, c)
				if boosted {
					b *= math.Pow(want.OpenFloat64(), 1/shape)
				}
				b /= rate
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("draw %d: %v, reference %v", i, a, b)
				}
			}
			if *got != *want {
				t.Fatal("the stream ended at another position than the reference's")
			}
		})
	}
}

// ksStatistic returns the Kolmogorov-Smirnov distance between the
// empirical law of xs (sorted in place) and cdf.
func ksStatistic(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	dmax := 0.0
	for i, x := range xs {
		f := cdf(x)
		dmax = math.Max(dmax, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return dmax
}

// checkKS draws 1e5 variates of d from r and fails t when their
// Kolmogorov-Smirnov distance from d.CDF exceeds the critical value
// at alpha = 1e-4, sqrt(-ln(alpha/2)/2)/sqrt(n).
func checkKS(t *testing.T, d Distribution, r *xrand.Source, label string) {
	t.Helper()
	const n = 100_000
	crit := math.Sqrt(-math.Log(1e-4/2)/2) / math.Sqrt(n)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	if ks := ksStatistic(xs, d.CDF); ks > crit {
		t.Errorf("%s Sample: KS distance %.4g over %.4g", label, ks, crit)
	}
}

// TestWeibullSamplersKS checks Weibull.Sample against CDF by a
// Kolmogorov-Smirnov test at the field-study shapes, for the
// constructor's law (cached inverse shape) and for a literal struct
// without it.
func TestWeibullSamplersKS(t *testing.T) {
	for _, shape := range []float64{0.7, 1.09, 1.21, 1.48} {
		for _, w := range []Weibull{WeibullFromMeanRate(1e-4, shape), {Shape: shape, Scale: 3e4}} {
			r := xrand.NewStream(uint64(shape*100), 3)
			checkKS(t, w, r, fmt.Sprintf("%v (cached inverse %v)", w, w.invShape != 0))
		}
	}
}

// TestGammaLognormalSamplersKS checks Gamma.Sample and
// Lognormal.Sample against CDF by a Kolmogorov-Smirnov test: gamma at
// a boosted shape, a moderate one and a near-normal one, each as the
// constructor's law (cached Marsaglia-Tsang constants) and as a
// literal struct without them, and a lognormal built both ways.
func TestGammaLognormalSamplersKS(t *testing.T) {
	laws := []Distribution{
		NewLognormal(1.2, 0.8), Lognormal{Mu: 1.2, Sigma: 0.8},
	}
	for _, shape := range []float64{0.5, 2.5, 30} {
		laws = append(laws, NewGamma(shape, 0.3), Gamma{Shape: shape, Rate: 0.3})
	}
	for i, d := range laws {
		label := d.String()
		if g, ok := d.(Gamma); ok {
			label = fmt.Sprintf("%v (cached constants %v)", g, g.mtD != 0)
		}
		checkKS(t, d, xrand.NewStream(uint64(i), 5), label)
	}
}

// TestSampleNMomentsEveryFamily checks the mean and variance of n
// draws of Sample, one subtest per family, at the parameter points of
// the sampler tests and benchmarks: Marsaglia-Tsang at an integer, a
// fractional and a deeply boosted shape (0.4), the lognormal's normal
// draw, and Weibull on both sides of shape 1.
func TestSampleNMomentsEveryFamily(t *testing.T) {
	cases := []struct {
		name string
		d    Distribution
	}{
		{"exponential", NewExponential(0.25)},
		{"deterministic", NewDeterministic(3.5)},
		{"uniform", NewUniform(2, 10)},
		{"weibull-wearout", NewWeibull(1.48, 200)},
		{"weibull-infant", NewWeibull(0.7, 50)},
		{"lognormal", NewLognormal(1.2, 0.8)},
		{"gamma-int", NewGamma(3, 0.5)},
		{"gamma-frac", NewGamma(2.6, 4)},
		{"gamma-small-shape", NewGamma(0.4, 2)},
		{"erlang", NewErlang(4, 0.1)},
		{"hyperexp", NewHyperExponential([]float64{0.7, 0.3}, []float64{2, 0.1})},
	}
	const n = 300000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mean, varc := moments(c.d, 1000, n)
			wm, wv := c.d.Mean(), c.d.Var()
			// 6-sigma tolerance on the mean estimator, floored for the
			// deterministic law; variance gets a looser relative band.
			tolM := 6*math.Sqrt(wv/n) + 1e-12
			if math.Abs(mean-wm) > tolM {
				t.Errorf("Sample mean = %v, analytic %v (tol %v)", mean, wm, tolM)
			}
			if wv > 0 && math.Abs(varc-wv) > 0.05*wv {
				t.Errorf("Sample variance = %v, analytic %v", varc, wv)
			}
		})
	}
}

// TestSampleNAgreesWithSample cross-checks the two routes to a variate
// of the families whose Sample is not an inversion: n draws of Sample
// and n draws of Quantile(OpenFloat64()), the one-uniform route of the
// package doc, must each put mass p below the p-quantile and agree
// with each other there.
func TestSampleNAgreesWithSample(t *testing.T) {
	cases := []struct {
		name string
		d    Distribution
	}{
		{"gamma", NewGamma(2.6, 4)},
		{"gamma-small", NewGamma(0.4, 2)},
		{"lognormal", NewLognormal(1.2, 0.8)},
	}
	const n = 200000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs := xrand.NewStream(7, 1)
			rq := xrand.NewStream(7, 2)
			sampled := make([]float64, n)
			inverted := make([]float64, n)
			for i := range sampled {
				sampled[i] = c.d.Sample(rs)
				inverted[i] = c.d.Quantile(rq.OpenFloat64())
			}
			below := func(xs []float64, q float64) float64 {
				k := 0
				for _, v := range xs {
					if v <= q {
						k++
					}
				}
				return float64(k) / n
			}
			for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
				q := c.d.Quantile(p)
				fs, fq := below(sampled, q), below(inverted, q)
				if math.Abs(fs-p) > 0.01 {
					t.Errorf("Sample P(X<=q%.2f) = %v", p, fs)
				}
				if math.Abs(fs-fq) > 0.01 {
					t.Errorf("Sample vs Quantile(U) at p=%.2f: %v vs %v", p, fs, fq)
				}
			}
		})
	}
}

// TestWeibullZeroExponential pins the sampler's one edge: an
// exponential draw of exactly 0 maps to a clock of 0, not NaN.
func TestWeibullZeroExponential(t *testing.T) {
	for _, w := range []Weibull{NewWeibull(1.21, 100), {Shape: 0.7, Scale: 100}} {
		if got := w.clock(0, w.inv()); got != 0 {
			t.Errorf("%v: E = 0 maps to %v, want 0", w, got)
		}
	}
}

// TestLiteralLawsSampleLikeConstructed checks that a law written as a
// composite literal, which leaves the constructor's cached constants
// zero, draws and inverts bit-identically to its constructor-built
// twin and leaves the stream at the same position. A shard worker
// rebuilds every law through its constructor, so a coordinator's
// literal law and the worker's copy must agree.
func TestLiteralLawsSampleLikeConstructed(t *testing.T) {
	pairs := []struct{ literal, built Distribution }{
		{Exponential{Rate: 0.25}, NewExponential(0.25)},
		{Deterministic{Value: 3.5}, NewDeterministic(3.5)},
		{Uniform{Lo: 2, Hi: 10}, NewUniform(2, 10)},
		{Weibull{Shape: 1.21, Scale: 3e4}, NewWeibull(1.21, 3e4)},
		{Weibull{Shape: 0.7, Scale: 50}, NewWeibull(0.7, 50)},
		{Lognormal{Mu: 1.2, Sigma: 0.8}, NewLognormal(1.2, 0.8)},
		{Gamma{Shape: 2, Rate: 0.5}, NewErlang(2, 0.5)},
		{Gamma{Shape: 2.6, Rate: 4}, NewGamma(2.6, 4)},
		{Gamma{Shape: 0.5, Rate: 3}, NewGamma(0.5, 3)},
		{
			Mixture{Components: []Distribution{Exponential{Rate: 2}, Gamma{Shape: 2, Rate: 0.1}}, Weights: []float64{0.75, 0.25}},
			NewMixture([]float64{3, 1}, NewExponential(2), NewErlang(2, 0.1)),
		},
	}
	const n = 10_000
	for _, p := range pairs {
		a, b := xrand.NewStream(11, 4), xrand.NewStream(11, 4)
		for i := 0; i < n; i++ {
			if x, y := p.literal.Sample(a), p.built.Sample(b); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s draw %d: literal %v, constructor-built %v", p.built, i, x, y)
			}
		}
		if *a != *b {
			t.Errorf("%s: the literal law left the stream at another position", p.built)
		}
		for _, q := range quantileProbes {
			if x, y := p.literal.Quantile(q), p.built.Quantile(q); math.Float64bits(x) != math.Float64bits(y) {
				t.Errorf("%s Quantile(%v): literal %v, constructor-built %v", p.built, q, x, y)
			}
		}
	}
}

// TestErlangFloat64Moments checks the O(1) integer-shape draw against
// the Erlang(k, 1) mean, variance, and median for stage counts on
// both sides of the precomputed-constants cutoff.
func TestErlangFloat64Moments(t *testing.T) {
	r := xrand.NewStream(7, 0)
	for _, k := range []int{1, 2, 3, 8, 64, 100} {
		const n = 200000
		sum, sum2, below := 0.0, 0.0, 0
		med := NewGamma(float64(k), 1).Quantile(0.5)
		for i := 0; i < n; i++ {
			v := ErlangFloat64(r, k)
			if v < 0 {
				t.Fatalf("k=%d: negative draw %v", k, v)
			}
			sum += v
			sum2 += v * v
			if v < med {
				below++
			}
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		fk := float64(k)
		if tol := 5 * math.Sqrt(fk/n); math.Abs(mean-fk) > tol {
			t.Errorf("k=%d: mean %v, want %v +- %v", k, mean, fk, tol)
		}
		if tol := 5 * math.Sqrt(2*fk*fk+4*fk) / math.Sqrt(n); math.Abs(variance-fk) > tol {
			t.Errorf("k=%d: variance %v, want %v +- %v", k, variance, fk, tol)
		}
		if frac := float64(below) / n; math.Abs(frac-0.5) > 5*0.5/math.Sqrt(n) {
			t.Errorf("k=%d: P(X < median) = %v, want 0.5", k, frac)
		}
	}
}

func TestErlangFloat64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ErlangFloat64(r, 0) did not panic")
		}
	}()
	ErlangFloat64(xrand.New(1), 0)
}

func BenchmarkErlangFloat64(b *testing.B) {
	r := xrand.New(1)
	acc := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc += ErlangFloat64(r, 24)
	}
	_ = acc
}

// sampleSink keeps the benchmarked draws live.
var sampleSink float64

// benchmarkSample times 256 draws of d per op through the
// Distribution interface, as the simulator's generic walkers call it.
func benchmarkSample(b *testing.B, d Distribution) {
	r := xrand.New(1)
	acc := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			acc += d.Sample(r)
		}
	}
	sampleSink = acc
}

func BenchmarkSampleExponential(b *testing.B) { benchmarkSample(b, NewExponential(0.1)) }

func BenchmarkSampleGamma(b *testing.B) { benchmarkSample(b, NewGamma(2.6, 4)) }

func BenchmarkSampleLognormal(b *testing.B) { benchmarkSample(b, NewLognormal(1.2, 0.8)) }
