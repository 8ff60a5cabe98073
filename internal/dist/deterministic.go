package dist

import (
	"fmt"

	"herald/internal/xrand"
)

// Deterministic is a point mass: every draw returns Value. It models
// fixed-length services and lets tests exercise exact ties between
// event times.
type Deterministic struct {
	// Value is the constant outcome (hours).
	Value float64
}

// NewDeterministic returns the point mass at value (hours). It panics
// if value is negative or not finite.
func NewDeterministic(value float64) Deterministic {
	checkFinite("deterministic", "value", value)
	if value < 0 {
		panic(fmt.Sprintf("dist: deterministic value %v must be non-negative", value))
	}
	return Deterministic{Value: value}
}

// Sample returns Value without consuming randomness.
func (d Deterministic) Sample(*xrand.Source) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// Var returns 0.
func (d Deterministic) Var() float64 { return 0 }

// CDF is the unit step at Value.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Quantile returns Value for every p.
func (d Deterministic) Quantile(p float64) float64 {
	checkProb("deterministic", p)
	return d.Value
}

// String names the law.
func (d Deterministic) String() string {
	return fmt.Sprintf("Deterministic(%g)", d.Value)
}
