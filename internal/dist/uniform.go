package dist

import (
	"fmt"

	"herald/internal/xrand"
)

// Uniform is the constant-density law on [Lo, Hi): a service whose
// duration is only known to lie within hard bounds, e.g. a maintenance
// window.
type Uniform struct {
	// Lo and Hi bound the support in hours, 0 <= Lo < Hi.
	Lo, Hi float64
}

// NewUniform returns the uniform law on [lo, hi). It panics unless
// 0 <= lo < hi with both finite.
func NewUniform(lo, hi float64) Uniform {
	checkFinite("uniform", "lo", lo)
	checkFinite("uniform", "hi", hi)
	if lo < 0 || lo >= hi {
		panic(fmt.Sprintf("dist: uniform bounds [%v, %v) need 0 <= lo < hi", lo, hi))
	}
	return Uniform{Lo: lo, Hi: hi}
}

// Sample draws Lo + (Hi-Lo)*U.
func (u Uniform) Sample(r *xrand.Source) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Var returns (Hi-Lo)^2 / 12.
func (u Uniform) Var() float64 {
	w := u.Hi - u.Lo
	return w * w / 12
}

// CDF is linear on the support.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Quantile returns Lo + p*(Hi-Lo).
func (u Uniform) Quantile(p float64) float64 {
	checkProb("uniform", p)
	return u.Lo + p*(u.Hi-u.Lo)
}

// String names the law.
func (u Uniform) String() string {
	return fmt.Sprintf("Uniform[%g, %g)", u.Lo, u.Hi)
}
