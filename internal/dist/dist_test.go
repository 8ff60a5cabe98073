package dist

import (
	"math"
	"strings"
	"testing"

	"herald/internal/xrand"
)

// Compile-time interface compliance for every family.
var (
	_ Distribution = Exponential{}
	_ Distribution = Deterministic{}
	_ Distribution = Weibull{}
	_ Distribution = Lognormal{}
	_ Distribution = Gamma{}
	_ Distribution = Uniform{}
	_ Distribution = Mixture{}
)

// families is the shared test table: every law the package ships, with
// parameters spanning the regimes the availability models use.
func families() map[string]Distribution {
	return map[string]Distribution{
		"exponential":      NewExponential(0.1),
		"exponential-slow": NewExponential(2e-5),
		"deterministic":    NewDeterministic(33),
		"weibull-wearout":  NewWeibull(1.48, 2000),
		"weibull-infant":   NewWeibull(0.8, 500),
		"weibull-meanrate": WeibullFromMeanRate(2e-5, 1.12),
		"lognormal":        NewLognormal(1, 0.5),
		"lognormal-mm":     LognormalFromMeanMedian(20, 15),
		"gamma":            NewGamma(2.5, 0.3),
		"gamma-small":      NewGamma(0.5, 2),
		"erlang":           NewErlang(4, 0.5),
		"uniform":          NewUniform(2, 10),
		"hyperexp":         NewHyperExponential([]float64{0.7, 0.3}, []float64{1, 0.05}),
		"mixture": NewMixture([]float64{0.5, 0.5},
			NewUniform(1, 5), NewWeibull(2, 40)),
	}
}

// moments draws n samples and returns the empirical mean and
// (population) variance.
func moments(d Distribution, seed uint64, n int) (mean, variance float64) {
	r := xrand.New(seed)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return
}

// TestSampleMomentsMatchAnalytic is the package's core statistical
// property: for every family, seeded sample moments must agree with
// the analytic Mean()/Var() within standard-error tolerances.
func TestSampleMomentsMatchAnalytic(t *testing.T) {
	const n = 200000
	for name, d := range families() {
		mean, variance := moments(d, 42, n)
		wantMean, wantVar := d.Mean(), d.Var()

		// 5-sigma band on the sample mean.
		tolMean := 5 * math.Sqrt(wantVar/n)
		if wantVar == 0 {
			tolMean = 1e-12 * (1 + math.Abs(wantMean))
		}
		if diff := math.Abs(mean - wantMean); diff > tolMean {
			t.Errorf("%s: sample mean %v vs analytic %v (diff %g > tol %g)",
				name, mean, wantMean, diff, tolMean)
		}

		// The sampling variance of the variance estimator depends on
		// the 4th moment; 8%% relative covers every family here at
		// n=2e5 with a wide margin.
		if wantVar == 0 {
			if variance != 0 {
				t.Errorf("%s: deterministic law with sample variance %v", name, variance)
			}
			continue
		}
		if rel := math.Abs(variance-wantVar) / wantVar; rel > 0.08 {
			t.Errorf("%s: sample variance %v vs analytic %v (rel %g)",
				name, variance, wantVar, rel)
		}
	}
}

// TestSampleDeterminism: identical (seed, stream) pairs must replay
// the exact sample sequence; different seeds must not.
func TestSampleDeterminism(t *testing.T) {
	for name, d := range families() {
		a := xrand.NewStream(7, 3)
		b := xrand.NewStream(7, 3)
		c := xrand.NewStream(8, 3)
		same, diff := true, false
		for i := 0; i < 100; i++ {
			x, y, z := d.Sample(a), d.Sample(b), d.Sample(c)
			if x != y {
				same = false
			}
			if x != z {
				diff = true
			}
		}
		if !same {
			t.Errorf("%s: same seed produced different sequences", name)
		}
		if _, ok := d.(Deterministic); !ok && !diff {
			t.Errorf("%s: different seeds produced identical sequences", name)
		}
	}
}

var quantileProbes = []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}

// TestQuantileCDFRoundTrip: CDF(Quantile(p)) == p for every continuous
// family, and Quantile is monotone in p.
func TestQuantileCDFRoundTrip(t *testing.T) {
	for name, d := range families() {
		if _, ok := d.(Deterministic); ok {
			// Point mass: the generalized inverse is the atom itself.
			if q := d.Quantile(0.5); q != d.Mean() {
				t.Errorf("%s: quantile %v, want atom %v", name, q, d.Mean())
			}
			continue
		}
		prev := math.Inf(-1)
		for _, p := range quantileProbes {
			q := d.Quantile(p)
			if q < prev {
				t.Errorf("%s: quantile not monotone at p=%v (%v < %v)", name, p, q, prev)
			}
			prev = q
			if back := d.CDF(q); math.Abs(back-p) > 1e-9 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", name, p, back)
			}
		}
	}
}

// TestEmpiricalCDFMatchesAnalytic: the fraction of samples below the
// analytic p-quantile must be p, within a binomial 5-sigma band. This
// exercises Sample/CDF/Quantile consistency jointly.
func TestEmpiricalCDFMatchesAnalytic(t *testing.T) {
	const n = 100000
	for name, d := range families() {
		if _, ok := d.(Deterministic); ok {
			continue
		}
		r := xrand.New(99)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = d.Sample(r)
		}
		for _, p := range []float64{0.1, 0.5, 0.9} {
			q := d.Quantile(p)
			below := 0
			for _, x := range samples {
				if x <= q {
					below++
				}
			}
			got := float64(below) / n
			tol := 5 * math.Sqrt(p*(1-p)/n)
			if math.Abs(got-p) > tol {
				t.Errorf("%s: empirical CDF at q%.2g = %v (tol %g)", name, p, got, tol)
			}
		}
	}
}

// TestWeibullShapeOneMatchesExponential: at shape 1 the Weibull law is
// the exponential law, analytically and sample-for-sample (the
// inverse-CDF samplers consume the stream identically).
func TestWeibullShapeOneMatchesExponential(t *testing.T) {
	const rate = 2e-5
	w := NewWeibull(1, 1/rate)
	e := NewExponential(rate)

	if math.Abs(w.Mean()-e.Mean())/e.Mean() > 1e-12 {
		t.Errorf("means differ: weibull %v vs exponential %v", w.Mean(), e.Mean())
	}
	if math.Abs(w.Var()-e.Var())/e.Var() > 1e-9 {
		t.Errorf("variances differ: weibull %v vs exponential %v", w.Var(), e.Var())
	}
	for _, p := range quantileProbes {
		qw, qe := w.Quantile(p), e.Quantile(p)
		if math.Abs(qw-qe) > 1e-9*qe {
			t.Errorf("quantile(%v) differs: weibull %v vs exponential %v", p, qw, qe)
		}
	}
	ra, rb := xrand.New(5), xrand.New(5)
	for i := 0; i < 1000; i++ {
		xw, xe := w.Sample(ra), e.Sample(rb)
		if math.Abs(xw-xe) > 1e-9*xe {
			t.Fatalf("sample %d differs: weibull %v vs exponential %v", i, xw, xe)
		}
	}
}

// TestWeibullFromMeanRateInvertsMean: the constructor must hit
// MTTF = 1/rate exactly for every shape the paper's Fig. 5 uses and
// beyond.
func TestWeibullFromMeanRateInvertsMean(t *testing.T) {
	for _, shape := range []float64{0.7, 1, 1.09, 1.12, 1.21, 1.48, 2, 3.5} {
		for _, rate := range []float64{1.25e-6, 2e-5, 0.1} {
			w := WeibullFromMeanRate(rate, shape)
			want := 1 / rate
			if rel := math.Abs(w.Mean()-want) / want; rel > 1e-12 {
				t.Errorf("shape %v rate %v: mean %v, want %v (rel %g)",
					shape, rate, w.Mean(), want, rel)
			}
			if w.Var() <= 0 {
				t.Errorf("shape %v rate %v: non-positive variance %v", shape, rate, w.Var())
			}
		}
	}
}

// TestNormQuantileKnownValues pins the classic critical points.
func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.841344746068543, 1}, // Phi(1)
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		if got := NormQuantile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestNormQuantileRoundTrip: Phi(Phi^-1(p)) must return p to near
// machine precision at fixed probes across both tails.
func TestNormQuantileRoundTrip(t *testing.T) {
	probes := []float64{1e-12, 1e-9, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 1 - 1e-4, 1 - 1e-9}
	for _, p := range probes {
		x := NormQuantile(p)
		back := NormCDF(x)
		tol := 1e-12 * math.Max(p, 1e-300)
		if p > 0.5 {
			// Near 1 the limiting factor is the spacing of floats
			// around p itself.
			tol = 1e-13
		}
		if math.Abs(back-p) > tol {
			t.Errorf("NormCDF(NormQuantile(%g)) = %g (err %g > tol %g)",
				p, back, math.Abs(back-p), tol)
		}
	}
	// Symmetry.
	for _, p := range []float64{1e-6, 0.01, 0.3} {
		if d := NormQuantile(p) + NormQuantile(1-p); math.Abs(d) > 1e-11 {
			t.Errorf("asymmetry at p=%v: %g", p, d)
		}
	}
}

func TestMemoryless(t *testing.T) {
	// Every exponential parameterization answers with its hazard rate,
	// by value and by pointer.
	e := NewExponential(0.1)
	w := NewWeibull(1, 4)
	g := NewGamma(1, 7)
	yes := []struct {
		name string
		d    Distribution
		rate float64
	}{
		{"exponential", NewExponential(2.5), 2.5},
		{"weibull shape 1", NewWeibull(1, 10), 0.1},
		{"gamma shape 1", NewGamma(1, 0.25), 0.25},
		{"erlang 1 stage", NewErlang(1, 3), 3},
		{"*exponential", &e, 0.1},
		{"*weibull shape 1", &w, 0.25},
		{"*gamma shape 1", &g, 7},
	}
	for _, c := range yes {
		rate, ok := Memoryless(c.d)
		if !ok || math.Abs(rate-c.rate) > 1e-15 {
			t.Errorf("Memoryless(%s) = %v, %v; want %v, true", c.name, rate, ok, c.rate)
		}
	}
	// Aging or multi-mode laws are not memoryless — even a
	// single-branch hyper-exponential, which is distributionally
	// exponential but not structurally recognized.
	no := []Distribution{
		NewWeibull(1.48, 200), NewWeibull(0.7, 50),
		NewGamma(2.6, 4), NewErlang(4, 0.1),
		NewDeterministic(1), NewUniform(0, 1), NewLognormal(0, 1),
		NewHyperExponential([]float64{1}, []float64{2}),
	}
	for _, d := range no {
		if rate, ok := Memoryless(d); ok {
			t.Errorf("Memoryless(%s) unexpectedly ok with rate %v", d, rate)
		}
	}
}

// TestFastExp pins the exponential case of Memoryless, the one the
// walkers' inlined draws and the rate-based kernels start from: an
// Exponential answers its Rate bit for bit, by value and by pointer.
func TestFastExp(t *testing.T) {
	for _, rate := range []float64{2.5, 0.1, 1.0 / 3, 7.96e-6} {
		e := NewExponential(rate)
		for _, d := range []Distribution{e, &e} {
			if got, ok := Memoryless(d); !ok || math.Float64bits(got) != math.Float64bits(rate) {
				t.Errorf("Memoryless(%T %v) = %v, %v; want %v, true", d, e, got, ok, rate)
			}
		}
	}
}

// TestGammaCDFMatchesErlangClosedForm cross-checks the incomplete
// gamma implementation against the elementary Erlang CDF
// 1 - exp(-rx) * sum_{j<k} (rx)^j / j!.
func TestGammaCDFMatchesErlangClosedForm(t *testing.T) {
	const k, rate = 3, 0.5
	g := NewErlang(k, rate)
	for _, x := range []float64{0.1, 1, 3, 6, 12, 30} {
		rx := rate * x
		sum, term := 1.0, 1.0
		for j := 1; j < k; j++ {
			term *= rx / float64(j)
			sum += term
		}
		want := 1 - math.Exp(-rx)*sum
		if got := g.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Erlang CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestHyperExponentialAnalytic pins the mixture moments against the
// hand-computed hyper-exponential formulas.
func TestHyperExponentialAnalytic(t *testing.T) {
	w := []float64{0.7, 0.3}
	r := []float64{1, 0.05}
	h := NewHyperExponential(w, r)
	wantMean := 0.7/1 + 0.3/0.05
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Errorf("mean %v, want %v", h.Mean(), wantMean)
	}
	wantVar := 0.7*2/(1*1) + 0.3*2/(0.05*0.05) - wantMean*wantMean
	if math.Abs(h.Var()-wantVar) > 1e-9 {
		t.Errorf("var %v, want %v", h.Var(), wantVar)
	}
	// A hyper-exponential always has coefficient of variation >= 1.
	if cv := math.Sqrt(h.Var()) / h.Mean(); cv < 1 {
		t.Errorf("hyper-exponential CV %v < 1", cv)
	}
	// Weights are normalized even when given unnormalized.
	h2 := NewHyperExponential([]float64{7, 3}, r)
	if math.Abs(h2.Mean()-wantMean) > 1e-12 {
		t.Errorf("unnormalized weights: mean %v, want %v", h2.Mean(), wantMean)
	}
}

// TestAtomicMixtureGeneralizedInverse: a mixture with a point-mass
// component has a CDF jump; the quantile must still satisfy the
// generalized-inverse contract CDF(Quantile(p)) >= p with monotone
// quantiles.
func TestAtomicMixtureGeneralizedInverse(t *testing.T) {
	m := NewMixture([]float64{0.5, 0.5}, NewDeterministic(5), NewWeibull(2, 40))
	prev := 0.0
	for _, p := range quantileProbes {
		q := m.Quantile(p)
		if q < prev {
			t.Errorf("quantile not monotone at p=%v (%v < %v)", p, q, prev)
		}
		prev = q
		if back := m.CDF(q); back < p-1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v < p", p, back)
		}
	}
	// The atom carries half the mass: quantiles across its span
	// collapse onto it.
	if q := m.Quantile(0.4); math.Abs(q-5) > 1e-6 {
		t.Errorf("quantile inside the atom = %v, want 5", q)
	}
}

// TestStrings: every law names itself (availsim prints the TTF law
// with %s).
func TestStrings(t *testing.T) {
	for name, d := range families() {
		s := d.String()
		if s == "" || strings.Contains(s, "%!") {
			t.Errorf("%s: bad String() %q", name, s)
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestConstructorValidation: invalid parameters are programmer errors
// and must panic with a clear message.
func TestConstructorValidation(t *testing.T) {
	mustPanic(t, "exp zero rate", func() { NewExponential(0) })
	mustPanic(t, "exp negative rate", func() { NewExponential(-1) })
	mustPanic(t, "exp NaN rate", func() { NewExponential(math.NaN()) })
	mustPanic(t, "exp Inf rate", func() { NewExponential(math.Inf(1)) })
	mustPanic(t, "deterministic negative", func() { NewDeterministic(-1) })
	mustPanic(t, "weibull zero shape", func() { NewWeibull(0, 1) })
	mustPanic(t, "weibull zero scale", func() { NewWeibull(1, 0) })
	mustPanic(t, "weibull-mr zero rate", func() { WeibullFromMeanRate(0, 1.2) })
	mustPanic(t, "lognormal zero sigma", func() { NewLognormal(0, 0) })
	mustPanic(t, "lognormal-mm median>=mean", func() { LognormalFromMeanMedian(10, 10) })
	mustPanic(t, "gamma zero shape", func() { NewGamma(0, 1) })
	mustPanic(t, "erlang zero stages", func() { NewErlang(0, 1) })
	mustPanic(t, "uniform empty", func() { NewUniform(5, 5) })
	mustPanic(t, "uniform negative lo", func() { NewUniform(-1, 5) })
	mustPanic(t, "mixture length mismatch", func() {
		NewMixture([]float64{1}, NewExponential(1), NewExponential(2))
	})
	mustPanic(t, "mixture zero weights", func() {
		NewMixture([]float64{0, 0}, NewExponential(1), NewExponential(2))
	})
	mustPanic(t, "mixture negative weight", func() {
		NewMixture([]float64{-1, 2}, NewExponential(1), NewExponential(2))
	})
	mustPanic(t, "mixture nil component", func() { NewMixture([]float64{1}, nil) })
	mustPanic(t, "hyperexp length mismatch", func() {
		NewHyperExponential([]float64{1}, []float64{1, 2})
	})
	mustPanic(t, "quantile p=0", func() { NewExponential(1).Quantile(0) })
	mustPanic(t, "quantile p=1", func() { NewExponential(1).Quantile(1) })
	mustPanic(t, "norm quantile p=0", func() { NormQuantile(0) })
	mustPanic(t, "norm quantile p=1", func() { NormQuantile(1) })
	mustPanic(t, "norm quantile NaN", func() { NormQuantile(math.NaN()) })
}

// TestCDFBasics: CDF is 0 at and below zero, approaches 1, and is
// non-decreasing on a coarse grid, for every family.
func TestCDFBasics(t *testing.T) {
	for name, d := range families() {
		if c := d.CDF(-1); c != 0 {
			t.Errorf("%s: CDF(-1) = %v", name, c)
		}
		if c := d.CDF(0); c != 0 {
			t.Errorf("%s: CDF(0) = %v", name, c)
		}
		far := d.Mean() + 50*math.Sqrt(d.Var()+1)
		if c := d.CDF(far); c < 0.99 {
			t.Errorf("%s: CDF(far) = %v", name, c)
		}
		prev := 0.0
		for i := 1; i <= 40; i++ {
			c := d.CDF(far * float64(i) / 40)
			if c < prev || c > 1 {
				t.Errorf("%s: CDF not monotone into [0,1] at step %d (%v after %v)", name, i, c, prev)
				break
			}
			prev = c
		}
	}
}

// TestGammaQuantileExtremeProbes exercises the Newton/bisection
// inversion in the far tails and at sub-1 shapes where
// Wilson-Hilferty degrades.
func TestGammaQuantileExtremeProbes(t *testing.T) {
	for _, g := range []Gamma{NewGamma(0.3, 2), NewGamma(1, 1), NewGamma(9.5, 0.01)} {
		for _, p := range []float64{1e-9, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-9} {
			q := g.Quantile(p)
			if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("%s: quantile(%g) = %v", g, p, q)
			}
			if back := g.CDF(q); math.Abs(back-p) > 1e-8*math.Max(p, 1e-12) && math.Abs(back-p) > 1e-11 {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", g, p, back)
			}
		}
	}
}
