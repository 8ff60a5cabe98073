package sim

import (
	"fmt"
	"math"
	"strconv"
)

// Failure-biasing importance sampling. At paper-scale rates almost
// every simulated lifetime is all-quiet: the availability stream is so
// zero-inflated that the iterations-per-CI cost is dominated by
// lifetimes contributing the observation 1.0 exactly. The memoryless
// walkers sample each CTMC state as a holding-time draw plus a
// winner-of-the-race draw, which admits a cheap exact change of
// measure: inflate only the disk-failure shares of the winner draws by
// a factor b (holding times keep their nominal law, so the clock stays
// calibrated) and carry the likelihood ratio as a per-iteration sum of
// per-event state constants —
//
//	quiet win in state s:   ln((G_s + b·F_s)/(G_s + F_s))
//	failure win in state s: the same minus ln b
//
// where F_s / G_s are the state's failure and non-failure exit
// totals. newRace (engine.go) applies this rule, once for every state
// of the three kernels: each race carries its state's lnQuiet and
// lnFail next to the biased winner cut points. Mission-censored holds
// and the Bernoulli(HEP) thinning draws are measure-invariant and
// contribute nothing. Estimates are reweighted through
// stats.WeightedAccumulator (self-normalized mean, Horvitz–Thompson
// diagnostic, ESS); see the README's "Rare-event acceleration" section
// for the estimator math.

// BiasAuto is the Options.Bias sentinel asking the run to pick the
// inflation factor from the configuration's failure/repair rate ratio
// (see resolveBias).
const BiasAuto = -1.0

// ParseBias maps a CLI or API token onto an Options.Bias value: the
// empty string means off, "auto" means BiasAuto, and anything else
// must parse as a finite factor >= 1.
func ParseBias(s string) (float64, error) {
	switch s {
	case "":
		return 0, nil
	case "auto":
		return BiasAuto, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
		return 0, fmt.Errorf("sim: bias %q must be \"auto\" or a finite factor >= 1", s)
	}
	return v, nil
}

// resolveBias returns the concrete failure-inflation factor a run of p
// under o samples with: 1 for unbiased options, o.Bias when explicit,
// and the auto heuristic below when o.Bias is BiasAuto. Auto
// resolution needs the configuration's rates and errors when they are
// not fully memoryless — the same constraint the kernels themselves
// impose on biased runs.
func resolveBias(p ArrayParams, o Options) (float64, error) {
	if !o.Biased() {
		return 1, nil
	}
	if o.Bias != BiasAuto {
		return o.Bias, nil
	}
	m, ok := memorylessRates(&p)
	if !ok {
		return 0, fmt.Errorf("sim: auto bias requires exponential laws throughout (TTF %v, repair %v, restore %v)",
			p.TTF, p.Repair, p.TapeRestore)
	}
	return autoBias(&p, m, o.MissionTime), nil
}

// autoBias picks the inflation factor for the critical exposed-state
// race, balancing two pressures:
//
//   - b_bal = G/F makes the biased failure probability 1/2 in the
//     exposed state (F the failure exit total (n-1)·lambda, G the
//     repair exit: muDF conventionally, muS under fail-over) — the
//     classic failure-biasing target, past which quiet-cycle weights
//     degrade faster than event yield improves;
//   - b_var = 1 + kappa·(F+G)/(cycles·F) caps the all-quiet
//     log-weight drift at kappa over a mission of cycles expected
//     benign cycles (per-cycle quiet drift is ~(b-1)·F/(F+G) for
//     small drift), keeping the weight spread — and with it the ESS —
//     bounded on configurations with many cycles per mission.
//
// The drift budget kappa depends on where the informative mass sits.
// With HEP = 0 every informative observation is failure-driven and
// carries the 1/b factor, so the quiet drift largely cancels in the
// self-normalized ratio and a loose kappa = 2 buys maximal event
// yield. With HEP > 0 the human-error downtime rides *quiet-weighted*
// iterations — biasing cannot accelerate it, it can only spread its
// weights — so the budget tightens to kappa = 1/4, keeping that
// stream's ESS near n while the double-failure stream still enjoys
// the inflated yield.
//
// The factor is min(b_bal, b_var) clamped to at least 1; degenerate
// rate inputs (no failure or no repair exit) answer 1, leaving the run
// effectively unbiased rather than guessing.
func autoBias(p *ArrayParams, m memRates, mission float64) float64 {
	n := float64(p.Disks)
	f := (n - 1) * m.lambda
	g := m.muDF
	if p.Policy == AutoFailover {
		g = m.muS
	}
	if !(f > 0) || !(g > 0) || !(mission > 0) {
		return 1
	}
	bBal := g / f
	cycles := mission * n * m.lambda
	if cycles < 1 {
		cycles = 1
	}
	kappa := 2.0
	if p.HEP > 0 {
		kappa = 0.25
	}
	bVar := 1 + kappa*(f+g)/(cycles*f)
	b := bBal
	if bVar < b {
		b = bVar
	}
	if b < 1 {
		b = 1
	}
	return b
}
