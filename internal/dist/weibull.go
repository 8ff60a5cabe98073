package dist

import (
	"fmt"
	"math"

	"herald/internal/xrand"
)

// Weibull is the law F(x) = 1 - exp(-(x/Scale)^Shape). Shape > 1
// models wear-out (increasing hazard), Shape < 1 infant mortality,
// and Shape = 1 reduces exactly to Exponential(1/Scale). The paper's
// Fig. 5 runs the simulator with field-study (shape, scale) pairs from
// Schroeder & Gibson (FAST'07).
type Weibull struct {
	// Shape is the dimensionless Weibull modulus k.
	Shape float64
	// Scale is the characteristic life c (hours): the 63.2th
	// percentile of the law.
	Scale float64
	// invShape caches 1/Shape for the samplers; constructors fill it,
	// literal structs leave it zero and fall back to the division.
	invShape float64
}

// NewWeibull returns the Weibull law with the given shape and scale
// (hours). It panics unless both are finite and positive.
func NewWeibull(shape, scale float64) Weibull {
	checkPositive("weibull", "shape", shape)
	checkPositive("weibull", "scale", scale)
	return Weibull{Shape: shape, Scale: scale, invShape: 1 / shape}
}

// WeibullFromMeanRate returns the Weibull law with the given shape
// whose mean is 1/rate, inverting mean = Scale * Gamma(1 + 1/Shape).
// This is how the paper's Fig. 5 states its disk lifetimes: a mean
// failure rate paired with a field-study shape.
func WeibullFromMeanRate(rate, shape float64) Weibull {
	checkPositive("weibull", "rate", rate)
	checkPositive("weibull", "shape", shape)
	return Weibull{Shape: shape, Scale: 1 / (rate * math.Gamma(1+1/shape)), invShape: 1 / shape}
}

// Sample draws Scale * E^(1/Shape) with E a standard exponential from
// the stream's ziggurat sampler (variable stream consumption per
// draw, like Exponential.Sample).
func (w Weibull) Sample(r *xrand.Source) float64 {
	return w.clock(r.ExpFloat64(), w.inv())
}

// SampleN fills dst with independent draws, resolving the 1/Shape
// exponent once for the whole fill.
func (w Weibull) SampleN(r *xrand.Source, dst []float64) {
	k := w.inv()
	for i := range dst {
		dst[i] = w.clock(r.ExpFloat64(), k)
	}
}

// inv returns 1/Shape: the cached value, or the division for a
// literal struct.
func (w Weibull) inv() float64 {
	if w.invShape == 0 {
		return 1 / w.Shape
	}
	return w.invShape
}

// clock maps a rate-1 exponential e to the variate Scale * e^k, with
// k = 1/Shape, as Scale * exp(k ln e): one logarithm and one
// exponential, where math.Pow spends about twice as long on the same
// power. e = 0 maps to 0 (ln 0 = -Inf).
func (w Weibull) clock(e, k float64) float64 {
	return w.Scale * math.Exp(math.Log(e)*k)
}

// Mean returns Scale * Gamma(1 + 1/Shape).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Var returns Scale^2 * (Gamma(1+2/Shape) - Gamma(1+1/Shape)^2).
func (w Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// CDF returns 1 - exp(-(x/Scale)^Shape).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Quantile returns Scale * (-ln(1-p))^(1/Shape).
func (w Weibull) Quantile(p float64) float64 {
	checkProb("weibull", p)
	return w.Scale * math.Pow(-math.Log1p(-p), 1/w.Shape)
}

// String names the law.
func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, scale=%g)", w.Shape, w.Scale)
}
