package xrand

import (
	"math"
	"testing"
)

// normCDF is the reference standard normal CDF used by the self-tests
// (erfc keeps full precision in the tails).
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// TestZigNormTables sanity-checks the init-built ziggurat: layer edges
// strictly decreasing from the base strip, density values increasing
// toward f(0) = 1, acceptance thresholds below the 52-bit ceiling, and
// every layer enclosing the same area to near machine precision.
func TestZigNormTables(t *testing.T) {
	const m = 1 << 52
	v := zigNormR*math.Exp(-0.5*zigNormR*zigNormR) + math.Sqrt(math.Pi/2)*math.Erfc(zigNormR/math.Sqrt2)
	for i := 1; i < 256; i++ {
		if zigNormF[i] >= zigNormF[i-1] {
			t.Fatalf("density edges not decreasing: f[%d]=%v f[%d]=%v", i-1, zigNormF[i-1], i, zigNormF[i])
		}
		if zigNormK[i] > m {
			t.Fatalf("layer %d: threshold %d above 52-bit ceiling", i, zigNormK[i])
		}
	}
	for i := 1; i < 255; i++ {
		xi := zigNormW[i] * m    // layer i right edge
		xi1 := zigNormW[i+1] * m // layer i+1 right edge
		if xi1 <= xi {
			t.Fatalf("layer edges not increasing with index: x[%d]=%v x[%d]=%v", i, xi, i+1, xi1)
		}
		// Rectangle area of layer i: x_{i+1} * (f(x_i) - f(x_{i+1})).
		area := xi1 * (zigNormF[i] - zigNormF[i+1])
		if math.Abs(area-v) > 1e-9 {
			t.Fatalf("layer %d area %v, want common area %v", i, area, v)
		}
	}
}

// TestZigNormMoments is the moment self-test of the ziggurat sampler:
// mean, variance, skewness and excess kurtosis of a large sample must
// match the standard normal within Monte-Carlo tolerance.
func TestZigNormMoments(t *testing.T) {
	const n = 2_000_000
	r := New(20170327)
	var s1, s2, s3, s4 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		s1 += x
		s2 += x * x
		s3 += x * x * x
		s4 += x * x * x * x
	}
	mean := s1 / n
	varc := s2/n - mean*mean
	skew := s3 / n / math.Pow(varc, 1.5)
	kurt := s4/n/(varc*varc) - 3
	if math.Abs(mean) > 0.004 {
		t.Errorf("mean %v, want ~0", mean)
	}
	if math.Abs(varc-1) > 0.01 {
		t.Errorf("variance %v, want ~1", varc)
	}
	if math.Abs(skew) > 0.02 {
		t.Errorf("skewness %v, want ~0", skew)
	}
	if math.Abs(kurt) > 0.05 {
		t.Errorf("excess kurtosis %v, want ~0", kurt)
	}
}

// TestZigNormQuantiles is the quantile self-test: the empirical CDF at
// fixed abscissae — including points beyond the ziggurat base strip,
// exercising the tail sampler — must match the analytic normal CDF
// within binomial tolerance.
func TestZigNormQuantiles(t *testing.T) {
	const n = 2_000_000
	xs := []float64{-3.8, -3, -2, -1, -0.5, 0, 0.5, 1, 2, 3, 3.8}
	counts := make([]int, len(xs))
	r := New(7)
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		for j, x := range xs {
			if v <= x {
				counts[j]++
			}
		}
	}
	for j, x := range xs {
		p := normCDF(x)
		got := float64(counts[j]) / n
		tol := 5*math.Sqrt(p*(1-p)/n) + 2e-6
		if math.Abs(got-p) > tol {
			t.Errorf("P(X <= %v) = %v, want %v (tol %v)", x, got, p, tol)
		}
	}
}

// TestZigNormAgainstPolar cross-checks the ziggurat against the polar
// reference sampler on summary statistics from independent streams.
func TestZigNormAgainstPolar(t *testing.T) {
	const n = 500_000
	rz, rp := New(11), New(13)
	var mz, mp, vz, vp float64
	for i := 0; i < n; i++ {
		a, b := rz.NormFloat64(), rp.NormPolarFloat64()
		mz += a
		mp += b
		vz += a * a
		vp += b * b
	}
	mz, mp, vz, vp = mz/n, mp/n, vz/n, vp/n
	if math.Abs(mz-mp) > 0.008 {
		t.Errorf("ziggurat mean %v vs polar mean %v", mz, mp)
	}
	if math.Abs(vz-vp) > 0.01 {
		t.Errorf("ziggurat E[X^2] %v vs polar %v", vz, vp)
	}
}

// TestZigNormDeterminism pins replay: identical streams produce
// identical draw sequences.
func TestZigNormDeterminism(t *testing.T) {
	a, b := NewStream(3, 9), NewStream(3, 9)
	for i := 0; i < 10_000; i++ {
		if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
	}
}

func BenchmarkNormFloat64Zig(b *testing.B) {
	r := New(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.NormFloat64()
	}
	sinkNorm = s
}

func BenchmarkNormFloat64Polar(b *testing.B) {
	r := New(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.NormPolarFloat64()
	}
	sinkNorm = s
}

var sinkNorm float64

// normReference is a plain transcription of the single-loop ziggurat
// NormFloat64 wrote before its slow continuation moved into normSlow.
func normReference(s *Source) float64 {
	for {
		u := s.Uint64()
		j := u >> 12
		i := u & 0xff
		neg := u&0x100 != 0
		x := float64(j) * zigNormW[i]
		if j < zigNormK[i] {
			if neg {
				return -x
			}
			return x
		}
		if i == 0 {
			x = s.normTail()
			if neg {
				return -x
			}
			return x
		}
		if zigNormF[i]+s.Float64()*(zigNormF[i-1]-zigNormF[i]) < math.Exp(-0.5*x*x) {
			if neg {
				return -x
			}
			return x
		}
	}
}

// TestNormFloat64MatchesReference pins the fast-path/normSlow split to
// the single-loop transcription: bit-equal draws, equal stream
// positions, over enough draws to exercise the wedge and tail paths
// thousands of times.
func TestNormFloat64MatchesReference(t *testing.T) {
	const n = 2_000_000
	got, want := NewStream(17, 4), NewStream(17, 4)
	for i := 0; i < n; i++ {
		if a, b := got.NormFloat64(), normReference(want); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("draw %d: %v, reference %v", i, a, b)
		}
	}
	if *got != *want {
		t.Fatal("the stream ended at another position than the reference's")
	}
}
