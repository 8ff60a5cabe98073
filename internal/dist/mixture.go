package dist

import (
	"fmt"
	"math"
	"strings"

	"herald/internal/xrand"
)

// Mixture is a probabilistic mixture: a draw first selects component
// i with probability Weights[i], then samples Components[i]. It
// models multi-mode durations — most prominently the hyper-exponential
// human-error recovery in which a wrong pull is either noticed within
// minutes or discovered hours later during a routine check.
type Mixture struct {
	// Components are the branch laws.
	Components []Distribution
	// Weights are the branch probabilities; they sum to 1.
	Weights []float64
}

// NewMixture returns the mixture of the given components with the
// given weights. Weights must be non-negative with a positive sum
// (they are normalized internally); the lengths must match and be
// non-empty. It panics otherwise.
func NewMixture(weights []float64, components ...Distribution) Mixture {
	if len(components) == 0 || len(weights) != len(components) {
		panic(fmt.Sprintf("dist: mixture needs matching weights and components, got %d and %d",
			len(weights), len(components)))
	}
	total := 0.0
	for i, w := range weights {
		checkFinite("mixture", "weight", w)
		if w < 0 {
			panic(fmt.Sprintf("dist: mixture weight %d is negative (%v)", i, w))
		}
		if components[i] == nil {
			panic(fmt.Sprintf("dist: mixture component %d is nil", i))
		}
		total += w
	}
	if total <= 0 {
		panic("dist: mixture weights sum to zero")
	}
	m := Mixture{
		Components: append([]Distribution(nil), components...),
		Weights:    make([]float64, len(weights)),
	}
	for i, w := range weights {
		m.Weights[i] = w / total
	}
	return m
}

// NewHyperExponential returns the mixture of exponentials with the
// given branch weights and rates: the standard model for durations
// with a coefficient of variation above 1.
func NewHyperExponential(weights, rates []float64) Mixture {
	if len(rates) != len(weights) {
		panic(fmt.Sprintf("dist: hyper-exponential needs matching weights and rates, got %d and %d",
			len(weights), len(rates)))
	}
	comps := make([]Distribution, len(rates))
	for i, r := range rates {
		comps[i] = NewExponential(r)
	}
	return NewMixture(weights, comps...)
}

// Sample selects a branch by one uniform against the running sum of
// Weights, then samples it.
func (m Mixture) Sample(r *xrand.Source) float64 {
	u := r.Float64()
	k := len(m.Components) - 1
	run := 0.0
	for i, w := range m.Weights[:k] {
		if run += w; u < run {
			k = i
			break
		}
	}
	return m.Components[k].Sample(r)
}

// Mean returns the weighted component mean.
func (m Mixture) Mean() float64 {
	s := 0.0
	for i, c := range m.Components {
		s += m.Weights[i] * c.Mean()
	}
	return s
}

// Var returns the mixture variance by the law of total variance:
// sum w_i (Var_i + Mean_i^2) - Mean^2.
func (m Mixture) Var() float64 {
	mean := m.Mean()
	s := 0.0
	for i, c := range m.Components {
		mi := c.Mean()
		s += m.Weights[i] * (c.Var() + mi*mi)
	}
	return s - mean*mean
}

// CDF returns the weighted component CDF.
func (m Mixture) CDF(x float64) float64 {
	s := 0.0
	for i, c := range m.Components {
		s += m.Weights[i] * c.CDF(x)
	}
	return s
}

// Quantile inverts the mixture CDF by bisection between the extreme
// component quantiles (the mixture CDF is sandwiched between them).
func (m Mixture) Quantile(p float64) float64 {
	checkProb("mixture", p)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range m.Components {
		if m.Weights[i] == 0 {
			continue
		}
		q := c.Quantile(p)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if lo == hi {
		return lo
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// String names the law with its branches.
func (m Mixture) String() string {
	var sb strings.Builder
	sb.WriteString("Mixture(")
	for i, c := range m.Components {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.3g:%s", m.Weights[i], c)
	}
	sb.WriteString(")")
	return sb.String()
}
