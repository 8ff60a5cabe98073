package markov

import (
	"math"
	"testing"
)

// TestIntervalMatchesIntegratedTransient cross-checks the transient
// solve's two outputs: IntervalProbability (the reward integral, from
// integrated Poisson tails) must equal the Simpson-rule integral of
// the pointwise Transient solution.
func TestIntervalMatchesIntegratedTransient(t *testing.T) {
	c := NewBuilder().
		At("OP", "EXP", 4e-3).
		At("EXP", "OP", 0.1).
		At("EXP", "DL", 3e-3).
		At("DL", "OP", 0.03).
		MustBuild()
	iOP, _ := c.StateIndex("OP")
	pi0 := make([]float64, c.N())
	pi0[iOP] = 1
	up := []string{"OP", "EXP"}

	horizon := 500.0
	direct, err := c.IntervalProbability("OP", up, horizon)
	if err != nil {
		t.Fatal(err)
	}

	// Simpson integration of the point availability.
	const steps = 200 // even
	h := horizon / steps
	pointAt := func(tm float64) float64 {
		pi, err := c.Transient(pi0, tm)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, name := range up {
			i, _ := c.StateIndex(name)
			s += pi[i]
		}
		return s
	}
	sum := pointAt(0) + pointAt(horizon)
	for k := 1; k < steps; k++ {
		w := 2.0
		if k%2 == 1 {
			w = 4
		}
		sum += w * pointAt(float64(k)*h)
	}
	integral := sum * h / 3
	simpson := integral / horizon

	if math.Abs(direct-simpson) > 1e-7 {
		t.Fatalf("interval %v vs Simpson %v (diff %g)", direct, simpson, direct-simpson)
	}
}

// TestTransientAgreesWithMatrixExponentialSeries checks Transient
// against a direct truncated Taylor series of expm(Q t) for a small t
// where the series converges quickly.
func TestTransientAgreesWithMatrixExponentialSeries(t *testing.T) {
	c := NewBuilder().
		At("A", "B", 0.3).
		At("B", "C", 0.2).
		At("C", "A", 0.5).
		At("B", "A", 0.1).
		MustBuild()
	q := c.Generator()
	n := c.N()
	tm := 0.7

	// pi0 expm(Q t) by Taylor series: sum_k (pi0 Q^k) t^k / k!.
	pi0 := []float64{1, 0, 0}
	term := append([]float64(nil), pi0...)
	want := append([]float64(nil), pi0...)
	for k := 1; k < 60; k++ {
		term = q.VecMul(term)
		for i := range term {
			term[i] *= tm / float64(k)
		}
		for i := range want {
			want[i] += term[i]
		}
	}

	got, err := c.Transient(pi0, tm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("state %d: Transient %v vs series %v", i, got[i], want[i])
		}
	}
}
