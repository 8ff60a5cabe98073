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
// to the reference transcription: for every cached Erlang stage count
// and for a boosted shape below 1, a million draws are bit-equal and
// leave the stream at the same position.
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

	t.Run("gamma-0.5", func(t *testing.T) {
		t.Parallel()
		const shape, rate = 0.5, 3.0
		g := NewGamma(shape, rate)
		d, c := referenceConstants(shape + 1)
		got, want := xrand.NewStream(5, 21), xrand.NewStream(5, 21)
		dst := make([]float64, 1000)
		for i := 0; i < n; i += len(dst) {
			g.SampleN(got, dst)
			for j, a := range dst {
				b := mtDrawReference(want, d, c) * math.Pow(want.OpenFloat64(), 1/shape) / rate
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("draw %d: %v, reference %v", i+j, a, b)
				}
			}
		}
		if *got != *want {
			t.Fatal("the stream ended at another position than the reference's")
		}
	})
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

// TestWeibullSamplersKS checks Sample and SampleN against CDF by a
// Kolmogorov-Smirnov test at the field-study shapes, for the
// constructor's law (cached inverse shape) and for a literal struct
// without it.
func TestWeibullSamplersKS(t *testing.T) {
	const n = 100_000
	// Critical value at alpha = 1e-4: sqrt(-ln(alpha/2)/2)/sqrt(n).
	crit := math.Sqrt(-math.Log(1e-4/2)/2) / math.Sqrt(n)
	for _, shape := range []float64{0.7, 1.09, 1.21, 1.48} {
		for _, w := range []Weibull{WeibullFromMeanRate(1e-4, shape), {Shape: shape, Scale: 3e4}} {
			r := xrand.NewStream(uint64(shape*100), 3)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = w.Sample(r)
			}
			if ks := ksStatistic(xs, w.CDF); ks > crit {
				t.Errorf("%v (cached inverse %v) Sample: KS distance %.4g over %.4g", w, w.invShape != 0, ks, crit)
			}
			w.SampleN(r, xs)
			if ks := ksStatistic(xs, w.CDF); ks > crit {
				t.Errorf("%v (cached inverse %v) SampleN: KS distance %.4g over %.4g", w, w.invShape != 0, ks, crit)
			}
		}
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
