package markov

import "fmt"

// AccumulatedReward returns the expected reward integrated over [0, t]
// starting from distribution pi0: E[ int_0^t r(X(s)) ds ]. With r = 1
// on down states it yields the expected downtime of a finite mission,
// a metric the steady-state models cannot provide for young systems
// that have not reached equilibrium. It is TransientReward's second
// output: the doubling solve's terms are all non-negative, so a
// downtime many orders below t keeps its relative precision.
func (c *CTMC) AccumulatedReward(pi0 []float64, t float64, reward []float64) (float64, error) {
	_, acc, err := c.TransientReward(pi0, t, reward)
	return acc, err
}

// IntervalProbability returns the expected fraction of [0, t] spent in
// the named states, starting from the named initial state: the
// interval availability when the states are the up states.
func (c *CTMC) IntervalProbability(initial string, states []string, t float64) (float64, error) {
	if t <= 0 {
		return 0, fmt.Errorf("markov: horizon %v must be positive", t)
	}
	i0, ok := c.index[initial]
	if !ok {
		return 0, fmt.Errorf("markov: unknown initial state %q", initial)
	}
	pi0 := make([]float64, c.N())
	pi0[i0] = 1
	reward := make([]float64, c.N())
	for _, name := range states {
		i, ok := c.index[name]
		if !ok {
			return 0, fmt.Errorf("markov: unknown state %q", name)
		}
		reward[i] = 1
	}
	acc, err := c.AccumulatedReward(pi0, t, reward)
	if err != nil {
		return 0, err
	}
	return acc / t, nil
}
