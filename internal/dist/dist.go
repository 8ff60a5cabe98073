// Package dist provides the parametric probability laws the
// availability study samples lifetimes and service durations from:
// the input side of every Monte-Carlo experiment in the repository.
//
// All laws model a non-negative random duration in hours, sampled
// from an *xrand.Source.
//
// # Sampling
//
// Every family draws through one method, Sample, by one exact
// algorithm. Replaying a stream from its (seed, stream) pair
// reproduces the exact sample sequence — the foundation of the repro
// harness's determinism.
//
//   - Uniform consumes one uniform per draw and Deterministic none; a
//     Mixture consumes one uniform to pick its branch, then what the
//     branch consumes.
//   - Exponential and Weibull draw their exponential variate, and
//     Lognormal its normal, from the stream's ziggurat samplers, and
//     Gamma runs Marsaglia-Tsang squeeze-rejection: each consumes a
//     variable number of generator outputs per draw.
//
// Where exactly one uniform per variate matters, draw
// Quantile(r.OpenFloat64()) instead.
//
// Constructors precompute per-instance constants (Exponential's
// 1/rate, Weibull's 1/k, Gamma's Marsaglia-Tsang d and c); laws built
// as composite literals re-derive the same constants on the fly, so a
// literal law and the constructor-built law a shard worker rebuilds
// from its Spec draw bit-identically.
//
// # Families and parameterizations
//
//   - Exponential(rate): the memoryless law; density
//     f(x) = rate * exp(-rate*x), mean 1/rate. The paper's default for
//     every repair, restore and undo service (rates muDF, muDDF, muHE)
//     and for disk time-to-failure in the Markov-comparable runs.
//   - Weibull(shape k, scale c): F(x) = 1 - exp(-(x/c)^k), mean
//     c*Gamma(1+1/k). The paper's Fig. 5 field-study disk lifetimes;
//     shape > 1 models wear-out, shape = 1 reduces to
//     Exponential(1/c). WeibullFromMeanRate(rate, k) inverts the mean
//     formula to hit MTTF = 1/rate at a given shape.
//   - Deterministic(value): a point mass, for fixed-length services
//     and exact-tie corner tests.
//   - Uniform(lo, hi): constant density on [lo, hi); maintenance
//     windows with hard bounds.
//   - Lognormal(mu, sigma): ln X ~ N(mu, sigma^2), mean
//     exp(mu + sigma^2/2). The HRA literature's standard law for human
//     task completion times.
//   - Gamma(shape a, rate b): density proportional to
//     x^(a-1) exp(-b*x), mean a/b. Erlang(k, rate) is the integer-shape
//     special case: a sum of k exponential stages, the classic
//     phase-type model of multi-step service procedures.
//   - HyperExponential(weights, rates): a probabilistic mixture of
//     exponentials for multi-mode latencies (e.g. a human error that is
//     either caught in minutes or discovered hours later). Mixture
//     generalizes this to arbitrary component laws.
//
// NormQuantile exposes the standard normal inverse CDF (Acklam's
// rational approximation polished by one Halley step); it backs the
// Lognormal law and the confidence-interval machinery mirrored in
// internal/stats.
//
// Constructors panic on invalid parameters (non-finite, out of
// domain): distribution parameters are programmer inputs, matching the
// package-wide convention (cf. xrand.Intn, trace.Generate).
package dist

import (
	"fmt"
	"math"

	"herald/internal/xrand"
)

// Distribution is a one-dimensional probability law of a non-negative
// random duration. It is the sampling interface consumed by the
// Monte-Carlo simulator, the failure-log generator and the
// discrete-event examples.
type Distribution interface {
	// Sample draws one variate using r as the sole source of
	// randomness.
	Sample(r *xrand.Source) float64
	// Mean returns the analytic expectation E[X].
	Mean() float64
	// Var returns the analytic variance Var[X].
	Var() float64
	// CDF returns P(X <= x). It is 0 for x < 0.
	CDF(x float64) float64
	// Quantile returns the generalized inverse CDF
	// inf{x : CDF(x) >= p} for p in (0, 1).
	Quantile(p float64) float64
	// String names the law with its parameters.
	String() string
}

// checkFinite panics unless v is a finite float64.
func checkFinite(law, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("dist: %s %s %v is not finite", law, name, v))
	}
}

// checkPositive panics unless v is finite and strictly positive.
func checkPositive(law, name string, v float64) {
	checkFinite(law, name, v)
	if v <= 0 {
		panic(fmt.Sprintf("dist: %s %s %v must be positive", law, name, v))
	}
}

// checkProb panics unless p is a valid quantile probability in (0, 1).
func checkProb(law string, p float64) {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: %s quantile probability %v outside (0,1)", law, p))
	}
}

// Memoryless reports whether d is distributionally memoryless — an
// exponential law in any of its parameterizations — and returns its
// hazard rate: Exponential itself, Weibull with shape 1 (rate
// 1/Scale) and Gamma/Erlang with shape 1 (rate Rate), by value or by
// pointer.
//
// It is the capability query behind kernel specialization: a
// configuration whose laws all answer true admits the constant-hazard
// (CTMC-equivalent) treatment — competing risks collapse to one
// rate-based draw per event with no per-entity clocks — which
// internal/sim compiles onto its memoryless walkers.
func Memoryless(d Distribution) (rate float64, ok bool) {
	switch e := d.(type) {
	case Exponential:
		return e.Rate, true
	case *Exponential:
		return e.Rate, true
	case Weibull:
		if e.Shape == 1 {
			return 1 / e.Scale, true
		}
	case *Weibull:
		if e.Shape == 1 {
			return 1 / e.Scale, true
		}
	case Gamma:
		if e.Shape == 1 {
			return e.Rate, true
		}
	case *Gamma:
		if e.Shape == 1 {
			return e.Rate, true
		}
	}
	return 0, false
}
