package dist

import (
	"fmt"
	"math"

	"herald/internal/xrand"
)

// Gamma is the law with density proportional to
// x^(Shape-1) * exp(-Rate*x). Integer shapes (Erlang) are sums of
// Shape exponential stages: the classic phase-type model of a service
// procedure with sequential steps. Non-integer shapes interpolate.
type Gamma struct {
	// Shape is the dimensionless shape parameter a.
	Shape float64
	// Rate is the inverse scale b (1/h); the mean is Shape/Rate.
	Rate float64
	// mtD and mtC cache the Marsaglia-Tsang rejection constants
	// d = a' - 1/3 and c = 1/(3 sqrt(d)) for the effective shape
	// a' = max(Shape, Shape+1) used by SampleN; whB and whC cache the
	// Wilson-Hilferty starting-point constants 1 - 1/(9a) and
	// 1/(3 sqrt(a)) for Quantile. Constructors fill them; literal
	// structs leave them zero and the methods re-derive on the fly.
	mtD, mtC, whB, whC float64
}

// NewGamma returns the gamma law with the given shape and rate. It
// panics unless both are finite and positive.
func NewGamma(shape, rate float64) Gamma {
	checkPositive("gamma", "shape", shape)
	checkPositive("gamma", "rate", rate)
	g := Gamma{Shape: shape, Rate: rate}
	g.mtD, g.mtC = mtConstants(shape)
	g.whB, g.whC = whConstants(shape)
	return g
}

// mtConstants returns Marsaglia-Tsang's d and c for shape a, computed
// at the boosted shape a+1 when a < 1 (the boost draw handles the
// remainder).
func mtConstants(a float64) (d, c float64) {
	if a < 1 {
		a++
	}
	d = a - 1.0/3
	c = 1 / (3 * math.Sqrt(d))
	return d, c
}

// whConstants returns the Wilson-Hilferty cube-approximation constants
// for shape a.
func whConstants(a float64) (b, c float64) {
	return 1 - 1/(9*a), 1 / (3 * math.Sqrt(a))
}

// NewErlang returns the Erlang-k law: the sum of k independent
// exponential stages of the given rate. It panics unless k >= 1 and
// rate is finite and positive.
func NewErlang(k int, rate float64) Gamma {
	if k < 1 {
		panic(fmt.Sprintf("dist: erlang stage count %d must be >= 1", k))
	}
	return NewGamma(float64(k), rate)
}

// Sample draws by numeric inverse CDF from a single uniform, keeping
// the per-draw stream consumption constant for replay.
func (g Gamma) Sample(r *xrand.Source) float64 {
	return g.Quantile(r.OpenFloat64())
}

// SampleN fills dst with independent draws by Marsaglia-Tsang
// squeeze-rejection (ACM TOMS 2000) off the cached d and c constants:
// exact, and orders of magnitude cheaper than the numeric CDF
// inversion Sample performs. Shapes below 1 sample at Shape+1 and
// apply the U^(1/Shape) boost.
func (g Gamma) SampleN(r *xrand.Source, dst []float64) {
	d, c := g.mtD, g.mtC
	if d == 0 {
		d, c = mtConstants(g.Shape)
	}
	boosted := g.Shape < 1
	invA := 0.0
	if boosted {
		invA = 1 / g.Shape
	}
	for i := range dst {
		v := r.MarsagliaTsang(d, c)
		if boosted {
			v *= math.Pow(r.OpenFloat64(), invA)
		}
		dst[i] = v / g.Rate
	}
}

// erlangMaxCached is the largest stage count whose Marsaglia-Tsang
// constants are precomputed; ErlangFloat64 derives them on the fly
// beyond it.
const erlangMaxCached = 64

// erlangD and erlangC hold mtConstants(k) for k in [2, erlangMaxCached].
var erlangD, erlangC [erlangMaxCached + 1]float64

func init() {
	for k := 2; k <= erlangMaxCached; k++ {
		erlangD[k], erlangC[k] = mtConstants(float64(k))
	}
}

// ErlangFloat64 returns one Erlang(k, 1) variate — the sum of k
// independent rate-1 exponential stages — in O(1) draws regardless of
// k: one ziggurat exponential for k = 1, Marsaglia-Tsang rejection
// off cached integer-shape constants otherwise. It is the
// benign-cycle aggregation primitive of the memoryless simulation
// kernels, which collapse k quiet repair cycles into a single elapsed
// -time draw. It panics if k < 1.
func ErlangFloat64(r *xrand.Source, k int) float64 {
	if k <= 1 {
		if k < 1 {
			panic(fmt.Sprintf("dist: ErlangFloat64 stage count %d must be >= 1", k))
		}
		return r.ExpFloat64()
	}
	var d, c float64
	if k <= erlangMaxCached {
		d, c = erlangD[k], erlangC[k]
	} else {
		d, c = mtConstants(float64(k))
	}
	return r.MarsagliaTsang(d, c)
}

// Mean returns Shape/Rate.
func (g Gamma) Mean() float64 { return g.Shape / g.Rate }

// Var returns Shape/Rate^2.
func (g Gamma) Var() float64 { return g.Shape / (g.Rate * g.Rate) }

// CDF returns the regularized lower incomplete gamma P(Shape, Rate*x).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regGammaP(g.Shape, g.Rate*x)
}

// Quantile inverts the CDF: a Wilson-Hilferty starting point refined
// by safeguarded Newton iteration on P(Shape, x).
func (g Gamma) Quantile(p float64) float64 {
	checkProb("gamma", p)
	a := g.Shape

	// Wilson-Hilferty: Gamma(a,1) is approximately a*(1 - 1/(9a) +
	// z/(3 sqrt(a)))^3 at normal quantile z, with the two constants
	// cached per instance.
	whB, whC := g.whB, g.whC
	if whB == 0 {
		whB, whC = whConstants(a)
	}
	z := NormQuantile(p)
	t := whB + z*whC
	x := a * t * t * t
	if x <= 0 || a < 1 {
		// Small-shape / deep-tail fallback: invert the leading series
		// term P(a, x) ~ x^a / (a Gamma(a)).
		x = math.Exp((math.Log(p) + lgamma(a) + math.Log(a)) / a)
	}

	// Bracket the root, then polish with Newton steps that fall back
	// to bisection whenever they leave the bracket.
	lo, hi := 0.0, math.Max(2*x, a+10)
	for regGammaP(a, hi) < p {
		lo = hi
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		f := regGammaP(a, x) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := math.Exp((a-1)*math.Log(x) - x - lgamma(a))
		step := f / pdf
		next := x - step
		if !(next > lo && next < hi) || pdf == 0 || math.IsNaN(next) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) <= 1e-14*(1+x) {
			x = next
			break
		}
		x = next
	}
	return x / g.Rate
}

// String names the law.
func (g Gamma) String() string {
	return fmt.Sprintf("Gamma(shape=%g, rate=%g)", g.Shape, g.Rate)
}

// lgamma returns ln|Gamma(a)|, discarding the sign (a > 0 throughout
// this package).
func lgamma(a float64) float64 {
	v, _ := math.Lgamma(a)
	return v
}

// regGammaP returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x)/Gamma(a), by series expansion for x < a+1 and
// by Lentz continued fraction of the complement otherwise (Numerical
// Recipes gser/gcf).
func regGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		// Series: P(a,x) = e^(-x) x^a / Gamma(a) * sum x^n / (a)_(n+1).
		ap := a
		sum := 1 / a
		del := sum
		for n := 0; n < 500; n++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-16 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lgamma(a))
	}
	// Continued fraction for Q(a,x); P = 1 - Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return 1 - h*math.Exp(-x+a*math.Log(x)-lgamma(a))
}
