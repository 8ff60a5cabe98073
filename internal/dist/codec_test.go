package dist

import (
	"encoding/json"
	"math"
	"testing"

	"herald/internal/xrand"
)

// TestSpecRoundTripEveryFamily pins the wire codec: encoding a law and
// rebuilding it must preserve the distribution exactly, including the
// constructor-derived caches the JSON never carries — checked by
// comparing draw sequences against the original from identical
// streams.
func TestSpecRoundTripEveryFamily(t *testing.T) {
	laws := []Distribution{
		NewExponential(2.5e-5),
		NewDeterministic(12),
		NewUniform(3, 9),
		NewWeibull(1.48, 8.2e4),
		NewLognormal(1.1, 0.8),
		NewGamma(2.5, 0.3),
		NewErlang(3, 0.7),
		NewHyperExponential([]float64{0.7, 0.3}, []float64{2, 0.05}),
		NewMixture([]float64{0.5, 0.5}, NewDeterministic(1), NewWeibull(2, 5)),
	}
	for _, d := range laws {
		sp, err := SpecOf(d)
		if err != nil {
			t.Fatalf("%s: SpecOf: %v", d, err)
		}
		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: marshal: %v", d, err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", d, err)
		}
		got, err := back.Distribution()
		if err != nil {
			t.Fatalf("%s: rebuild: %v", d, err)
		}
		if got.String() != d.String() {
			t.Errorf("rebuilt law %s, want %s", got, d)
		}
		if m := got.Mean(); math.Abs(m-d.Mean()) > 1e-12*math.Abs(d.Mean()) {
			t.Errorf("%s: rebuilt mean %v, want %v", d, m, d.Mean())
		}
		ra, rb := xrand.New(99), xrand.New(99)
		for i := 0; i < 200; i++ {
			a, b := d.Sample(ra), got.Sample(rb)
			if a != b {
				t.Fatalf("%s: draw %d diverged after round-trip: %v vs %v", d, i, a, b)
			}
		}
	}
}

// TestSpecErrors covers the failure paths: wrong arity, bad params,
// unknown family, foreign implementations.
func TestSpecErrors(t *testing.T) {
	cases := []Spec{
		{Family: "exponential"},                        // missing rate
		{Family: "exponential", Params: []float64{-1}}, // invalid rate
		{Family: "weibull", Params: []float64{1}},      // wrong arity
		{Family: "mixture", Weights: []float64{1}},     // no components
		{Family: "mixture", Weights: []float64{1, 1}, Components: []Spec{{Family: "exponential", Params: []float64{1}}}}, // length mismatch
		{Family: "cauchy", Params: []float64{1}}, // unknown family
	}
	for _, sp := range cases {
		if _, err := sp.Distribution(); err == nil {
			t.Errorf("spec %+v: expected error", sp)
		}
	}
	if _, err := SpecOf(fakeDist{}); err == nil {
		t.Error("SpecOf(foreign type): expected error")
	}
}

type fakeDist struct{}

func (fakeDist) Sample(*xrand.Source) float64 { return 0 }
func (fakeDist) Mean() float64                { return 0 }
func (fakeDist) Var() float64                 { return 0 }
func (fakeDist) CDF(float64) float64          { return 0 }
func (fakeDist) Quantile(float64) float64     { return 0 }
func (fakeDist) String() string               { return "fake" }
