package dist

import (
	"fmt"
	"math"

	"herald/internal/xrand"
)

// Exponential is the memoryless law with density
// f(x) = Rate * exp(-Rate*x). It is the continuous-time analogue of
// the constant-hazard assumption behind every CTMC transition in
// internal/model.
type Exponential struct {
	// Rate is the hazard (1/h); the mean is 1/Rate.
	Rate float64
	// invRate caches 1/Rate for Sample; the constructor fills it, a
	// literal struct leaves it zero and Sample derives the same value.
	invRate float64
}

// NewExponential returns the exponential law with the given rate
// (1/h). It panics if rate is not finite and positive.
func NewExponential(rate float64) Exponential {
	checkPositive("exponential", "rate", rate)
	return Exponential{Rate: rate, invRate: 1 / rate}
}

// Sample draws a rate-1 exponential from the stream's ziggurat
// sampler and multiplies it by the cached 1/Rate, which is cheaper
// than dividing by Rate on every draw. Stream consumption per draw is
// variable (see xrand.Source.ExpFloat64); use an inverse-CDF draw via
// Quantile(r.OpenFloat64()) where exactly one uniform per variate
// matters.
func (e Exponential) Sample(r *xrand.Source) float64 {
	inv := e.invRate
	if inv == 0 {
		inv = 1 / e.Rate
	}
	return r.ExpFloat64() * inv
}

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Var returns 1/Rate^2.
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// CDF returns 1 - exp(-Rate*x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// -Expm1 avoids cancellation for small Rate*x.
	return -math.Expm1(-e.Rate * x)
}

// Quantile returns -ln(1-p)/Rate.
func (e Exponential) Quantile(p float64) float64 {
	checkProb("exponential", p)
	return -math.Log1p(-p) / e.Rate
}

// String names the law.
func (e Exponential) String() string {
	return fmt.Sprintf("Exponential(rate=%g)", e.Rate)
}
