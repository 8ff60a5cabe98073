package model

import (
	"fmt"

	"herald/internal/markov"
	"herald/internal/stats"
)

// MissionResult quantifies availability over a finite horizon for a
// system that starts fresh (state OP), where steady-state analysis
// overstates early-life downtime: a young array has not yet
// accumulated the stationary probability of being mid-restore.
type MissionResult struct {
	// Horizon is the mission length in hours.
	Horizon float64
	// IntervalAvailability is the expected fraction of the mission
	// spent up.
	IntervalAvailability float64
	// ExpectedDowntimeHours is the expected total downtime over the
	// mission.
	ExpectedDowntimeHours float64
	// PointAvailability is the probability of being up at exactly the
	// mission end.
	PointAvailability float64
}

// Nines converts the interval availability to nines.
func (m MissionResult) Nines() float64 { return stats.Nines(m.IntervalAvailability) }

// Mission computes finite-horizon metrics for a solved model, starting
// from the OP state, from one transient solve. The result's
// steady-state fields are unaffected. It integrates the down states,
// not the up states: an unavailability near 1e-10 read as 1 minus the
// up fraction would keep only its first few digits, or none.
func (r *Result) Mission(horizon float64) (MissionResult, error) {
	if horizon <= 0 {
		return MissionResult{}, fmt.Errorf("model: mission horizon %v must be positive", horizon)
	}
	// The state names are the chain's own: solve took them from it.
	index := func(name string) int {
		i, _ := r.Chain.StateIndex(name)
		return i
	}
	pi0, reward := make([]float64, r.Chain.N()), make([]float64, r.Chain.N())
	pi0[index(StateOP)] = 1
	for _, s := range r.down {
		reward[index(s)] = 1
	}
	pi, acc, err := r.Chain.TransientReward(pi0, horizon, reward)
	if err != nil {
		return MissionResult{}, err
	}
	point := 0.0
	for _, s := range r.UpStates {
		point += pi[index(s)]
	}
	down := acc / horizon
	return MissionResult{
		Horizon:               horizon,
		IntervalAvailability:  1 - down,
		ExpectedDowntimeHours: down * horizon,
		PointAvailability:     point,
	}, nil
}

// ConventionalHourlyDTMC builds the paper's figures in their literal
// drawn form: a discrete-time chain with one-hour steps and explicit
// self-loop probabilities R = 1 - sum(exit probabilities). Its
// stationary distribution matches the CTMC's (the tests prove it);
// the method exists so the reproduction can exhibit the exact object
// in the paper.
func ConventionalHourlyDTMC(p Params) (*markov.DTMC, error) {
	c, err := ConventionalChain(p)
	if err != nil {
		return nil, err
	}
	return c.Discretize(1)
}

// FailoverDTMC is the discretization of the Fig. 3 chain with an
// explicit step. The paper draws the figure with hourly self-loops,
// but with muCH = 1 the OPns exit probability slightly exceeds one at
// dt = 1 (an inconsistency of the drawn figure); a step of 0.25 h keeps
// every row stochastic at the default rates.
func FailoverDTMC(p FailoverParams, dt float64) (*markov.DTMC, error) {
	c, err := FailoverChain(p)
	if err != nil {
		return nil, err
	}
	return c.Discretize(dt)
}
