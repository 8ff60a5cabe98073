package dist

import (
	"fmt"
	"math"

	"herald/internal/xrand"
)

// Lognormal is the law of exp(N) for N ~ Normal(Mu, Sigma^2): the HRA
// literature's standard model of human task completion times, whose
// long right tail captures the occasional service that takes far
// longer than the median.
type Lognormal struct {
	// Mu is the mean of the underlying normal (log-hours); the median
	// of the law is exp(Mu).
	Mu float64
	// Sigma is the standard deviation of the underlying normal.
	Sigma float64
}

// NewLognormal returns the lognormal law with log-mean mu and
// log-standard-deviation sigma. It panics unless mu is finite and
// sigma finite and positive.
func NewLognormal(mu, sigma float64) Lognormal {
	checkFinite("lognormal", "mu", mu)
	checkPositive("lognormal", "sigma", sigma)
	return Lognormal{Mu: mu, Sigma: sigma}
}

// LognormalFromMeanMedian returns the lognormal law with the given
// mean and median (hours), the two statistics HRA tables usually
// report: mu = ln(median), sigma = sqrt(2 ln(mean/median)). It panics
// unless 0 < median < mean.
func LognormalFromMeanMedian(mean, median float64) Lognormal {
	checkPositive("lognormal", "mean", mean)
	checkPositive("lognormal", "median", median)
	if median >= mean {
		panic(fmt.Sprintf("dist: lognormal median %v must be below mean %v", median, mean))
	}
	return Lognormal{Mu: math.Log(median), Sigma: math.Sqrt(2 * math.Log(mean/median))}
}

// Sample draws exp(Mu + Sigma*N) with N a standard normal from the
// stream's ziggurat sampler (xrand.Source.NormFloat64): about 99% of
// normals cost one table compare and one multiply, leaving the exp as
// the one transcendental per variate. Stream consumption per draw is
// variable; Quantile(r.OpenFloat64()) draws from one uniform.
func (l Lognormal) Sample(r *xrand.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Var returns (exp(Sigma^2) - 1) * exp(2*Mu + Sigma^2).
func (l Lognormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return math.Expm1(s2) * math.Exp(2*l.Mu+s2)
}

// CDF returns Phi((ln x - Mu) / Sigma).
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return NormCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Quantile returns exp(Mu + Sigma * Phi^-1(p)).
func (l Lognormal) Quantile(p float64) float64 {
	checkProb("lognormal", p)
	return math.Exp(l.Mu + l.Sigma*NormQuantile(p))
}

// String names the law.
func (l Lognormal) String() string {
	return fmt.Sprintf("Lognormal(mu=%g, sigma=%g)", l.Mu, l.Sigma)
}
