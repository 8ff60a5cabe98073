package markov

import (
	"math"
	"testing"
)

func TestAccumulatedRewardTwoStateClosedForm(t *testing.T) {
	// For the machine-repair chain starting UP, the expected uptime in
	// [0,t] integrates the closed-form point availability:
	//   int_0^t A(s) ds = a*t + (b/r)(1 - e^{-r t})
	// with a = mu/(l+mu), b = l/(l+mu), r = l+mu, and the expected
	// downtime is the rest: b*t - (b/r)(1 - e^{-r t}). At l = 1e-9 the
	// downtime is about 1e-9 of the horizon, so it must be integrated
	// over DOWN, not read as t minus the uptime.
	for _, c := range []struct {
		l, mu    float64
		horizons []float64
	}{
		{0.05, 0.4, []float64{0.1, 1, 10, 100, 1000}},
		{1e-9, 1, []float64{0.1, 1, 10, 100, 1000, 1e4, 1e5, 1e6}},
	} {
		ch := twoState(c.l, c.mu)
		iUp, _ := ch.StateIndex("UP")
		iDown, _ := ch.StateIndex("DOWN")
		pi0 := make([]float64, 2)
		pi0[iUp] = 1
		upR, downR := make([]float64, 2), make([]float64, 2)
		upR[iUp], downR[iDown] = 1, 1
		a := c.mu / (c.l + c.mu)
		b := c.l / (c.l + c.mu)
		r := c.l + c.mu
		for _, horizon := range c.horizons {
			got, err := ch.AccumulatedReward(pi0, horizon, upR)
			if err != nil {
				t.Fatal(err)
			}
			settle := -math.Expm1(-r*horizon) / r
			want := a*horizon + b*settle
			if math.Abs(got-want) > 1e-8*(1+want) {
				t.Fatalf("l %v, horizon %v: uptime %v, want %v", c.l, horizon, got, want)
			}
			got, err = ch.AccumulatedReward(pi0, horizon, downR)
			if err != nil {
				t.Fatal(err)
			}
			want = b * (horizon - settle)
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("l %v, horizon %v: downtime %v, want %v (rel %.2g)", c.l, horizon, got, want, (got-want)/want)
			}
		}
	}
}

func TestAccumulatedRewardZeroHorizon(t *testing.T) {
	c := twoState(0.1, 0.9)
	got, err := c.AccumulatedReward([]float64{1, 0}, 0, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("zero horizon gave %v", got)
	}
}

func TestAccumulatedRewardNoTransitions(t *testing.T) {
	b := NewBuilder()
	b.State("ONLY")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.AccumulatedReward([]float64{1}, 7, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-21) > 1e-12 {
		t.Fatalf("frozen chain reward = %v, want 21", got)
	}
}

func TestAccumulatedRewardErrors(t *testing.T) {
	c := twoState(1, 1)
	if _, err := c.AccumulatedReward([]float64{1}, 1, []float64{1, 0}); err == nil {
		t.Fatal("short pi0 accepted")
	}
	if _, err := c.AccumulatedReward([]float64{1, 0}, -1, []float64{1, 0}); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := c.AccumulatedReward([]float64{1, 0}, math.Inf(1), []float64{1, 0}); err == nil {
		t.Fatal("infinite horizon accepted")
	}
}

func TestIntervalProbabilityConvergesToSteadyState(t *testing.T) {
	l, mu := 0.02, 0.5
	c := twoState(l, mu)
	av, err := c.IntervalProbability("UP", []string{"UP"}, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	want := mu / (l + mu)
	if math.Abs(av-want) > 1e-4 {
		t.Fatalf("long-run interval availability %v, want %v", av, want)
	}
}

func TestIntervalProbabilityShortMission(t *testing.T) {
	// A young system that starts UP has interval availability above
	// the steady-state value.
	l, mu := 0.01, 0.1
	c := twoState(l, mu)
	short, err := c.IntervalProbability("UP", []string{"UP"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss := mu / (l + mu)
	if short <= ss {
		t.Fatalf("short-mission availability %v not above steady state %v", short, ss)
	}
	if short > 1 {
		t.Fatalf("availability %v > 1", short)
	}
}

func TestIntervalProbabilityErrors(t *testing.T) {
	c := twoState(1, 1)
	if _, err := c.IntervalProbability("NOPE", []string{"UP"}, 1); err == nil {
		t.Fatal("unknown initial accepted")
	}
	if _, err := c.IntervalProbability("UP", []string{"NOPE"}, 1); err == nil {
		t.Fatal("unknown state accepted")
	}
	if _, err := c.IntervalProbability("UP", []string{"UP"}, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestAccumulatedRewardLargeUniformizationConstant(t *testing.T) {
	// Rates spanning 1e-6..1 with t large: Lambda*t ~ 1e4, so the
	// solve doubles its base step 14 times.
	c := NewBuilder().
		At("OP", "EXP", 4e-6).
		At("EXP", "OP", 0.1).
		At("EXP", "DL", 3e-6).
		At("DL", "OP", 0.03).
		MustBuild()
	iOP, _ := c.StateIndex("OP")
	pi0 := make([]float64, 3)
	pi0[iOP] = 1
	rew := make([]float64, 3)
	iDL, _ := c.StateIndex("DL")
	rew[iDL] = 1
	horizon := 1e5
	down, err := c.AccumulatedReward(pi0, horizon, rew)
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state DL mass is ~4e-9; expected downtime over 1e5 h
	// must be positive and below the steady-state bound extended by
	// transient slack.
	if down <= 0 || down > 1 {
		t.Fatalf("expected downtime %v h over %v h", down, horizon)
	}
}
