// Package model builds the paper's analytic availability models: the
// Markov chain of a RAID array under conventional disk replacement
// with human errors (paper Fig. 2), the extended chain with automatic
// disk fail-over and hot sparing (paper Fig. 3), and a dual-parity
// (RAID6-style) extension. It exposes steady-state availability,
// the unavailability breakdown into human-error (DU) and data-loss
// (DL) downtime, MTTDL-style absorbing metrics, and fleet (series)
// composition for the equal-usable-capacity comparisons of §V-C.
//
// All rates are per hour, matching the paper's constants:
// muDF = 0.1, muDDF = 0.03, muHE = 1, muS = 1, lambdaCrash = 0.01.
package model

import (
	"fmt"
	"math"

	"herald/internal/markov"
	"herald/internal/stats"
)

// State names shared by the models. The fail-over model adds the
// ns ("no spare") and numbered variants.
const (
	StateOP     = "OP"     // all members operational
	StateEXP    = "EXP"    // exposed: one member failed (up, degraded)
	StateDU     = "DU"     // data unavailable: wrong disk pulled
	StateDL     = "DL"     // data loss: restoring from backup
	StateEXP1   = "EXP1"   // fail-over: rebuilding onto hot spare
	StateOPns   = "OPns"   // fail-over: operational, spare consumed
	StateEXPns1 = "EXPns1" // fail-over: exposed, no spare
	StateEXPns2 = "EXPns2" // fail-over: healthy member pulled, no spare
	StateEXP2   = "EXP2"   // fail-over: healthy member pulled, spare present
	StateDUns1  = "DUns1"  // fail-over: failed + pulled, no spare
	StateDUns2  = "DUns2"  // fail-over: two pulled, no spare
	StateDU1    = "DU1"    // fail-over: failed + pulled, spare present
	StateDU2    = "DU2"    // fail-over: two pulled, spare present
	StateDLns   = "DLns"   // fail-over: data loss, no spare
	StateEXPd   = "EXPd"   // raid6: two members failed (up, critical)
	StateDUR    = "DUR"    // resync/restore after a wrong pull was undone
)

// Params parameterizes the conventional-replacement models.
type Params struct {
	// Disks is the member count n (4 for RAID5 3+1, 2 for RAID1 1+1).
	Disks int
	// Lambda is the per-disk failure rate (1/h).
	Lambda float64
	// MuDF is the disk replacement/rebuild service rate (1/h).
	MuDF float64
	// MuDDF is the recovery rate from data loss via backup (1/h).
	MuDDF float64
	// MuHE is the human-error undo service rate (1/h).
	MuHE float64
	// HEP is the per-service human error probability.
	HEP float64
	// LambdaCrash is the crash rate of a wrongly removed disk (1/h).
	LambdaCrash float64
	// LSERate is an optional additional EXP -> DL rate modelling
	// unrecoverable latent sector errors encountered while rebuilding
	// (Schroeder et al., TOS'10, cited by the paper's §I as a main
	// data-loss source alongside whole-disk failures). Zero — the
	// paper's configuration — disables it.
	LSERate float64
	// ResyncAfterUndo, when true, models the recovery from a wrong
	// replacement as two phases: undoing the pull (rate MuHE) followed
	// by a consistency restore from backup (rate MuDDF, state DUR).
	//
	// The paper's drawn Fig. 2 has DU -> OP directly at (1-hep)*muHE,
	// but its Monte-Carlo walk-through (Fig. 1) ends every DU interval
	// with a tape recovery, and its reported magnitudes — a 10x-100x
	// availability drop at hep = 0.001 and up to 263x downtime
	// underestimation — are only reproducible when the DU outage costs
	// on the order of 1/muHE + 1/muDDF (~34h), not 1/muHE (~1h). The
	// default is therefore true; set false for the literal figure.
	ResyncAfterUndo bool
}

// Paper returns the paper's §V-B parameter defaults for an n-disk
// array with per-disk failure rate lambda and human error probability
// hep: muDF = 0.1, muDDF = 0.03, muHE = 1, lambdaCrash = 0.01.
func Paper(n int, lambda, hep float64) Params {
	return Params{
		Disks:           n,
		Lambda:          lambda,
		MuDF:            0.1,
		MuDDF:           0.03,
		MuHE:            1,
		HEP:             hep,
		LambdaCrash:     0.01,
		ResyncAfterUndo: true,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Disks < 2 {
		return fmt.Errorf("model: need at least 2 disks, got %d", p.Disks)
	}
	if p.Lambda <= 0 {
		return fmt.Errorf("model: failure rate %v must be positive", p.Lambda)
	}
	if p.MuDF <= 0 || p.MuDDF <= 0 {
		return fmt.Errorf("model: service rates muDF=%v muDDF=%v must be positive", p.MuDF, p.MuDDF)
	}
	if p.HEP < 0 || p.HEP > 1 {
		return fmt.Errorf("model: hep %v outside [0,1]", p.HEP)
	}
	if p.HEP > 0 && p.MuHE <= 0 {
		return fmt.Errorf("model: muHE %v must be positive when hep > 0", p.MuHE)
	}
	if p.LambdaCrash < 0 {
		return fmt.Errorf("model: negative crash rate %v", p.LambdaCrash)
	}
	if p.LSERate < 0 {
		return fmt.Errorf("model: negative LSE rate %v", p.LSERate)
	}
	return nil
}

// Result packages a solved availability model.
type Result struct {
	// Chain is the underlying CTMC (exported for DOT rendering and
	// further analysis).
	Chain *markov.CTMC
	// Pi maps state name to steady-state probability.
	Pi map[string]float64
	// UpStates lists the states counted as available.
	UpStates []string
	// Availability is the steady-state probability of the up states.
	Availability float64
	// UnavailabilityDU is the probability mass of human-error
	// (data-unavailable) down states.
	UnavailabilityDU float64
	// UnavailabilityDL is the probability mass of data-loss states.
	UnavailabilityDL float64
}

// Nines returns the availability in number-of-nines.
func (r *Result) Nines() float64 { return stats.Nines(r.Availability) }

// Unavailability returns 1 - availability.
func (r *Result) Unavailability() float64 { return stats.Unavailability(r.Availability) }

// DowntimeHoursPerYear converts the unavailability to hours per year.
func (r *Result) DowntimeHoursPerYear() float64 {
	return stats.DowntimeHoursPerYear(r.Availability)
}

// solve computes the steady state of a chain and classifies the mass.
func solve(c *markov.CTMC, upStates, duStates, dlStates []string) (*Result, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Chain:    c,
		Pi:       make(map[string]float64, c.N()),
		UpStates: append([]string(nil), upStates...),
	}
	for i, p := range pi {
		res.Pi[c.StateName(i)] = p
	}
	for _, s := range upStates {
		res.Availability += res.Pi[s]
	}
	for _, s := range duStates {
		res.UnavailabilityDU += res.Pi[s]
	}
	for _, s := range dlStates {
		res.UnavailabilityDL += res.Pi[s]
	}
	return res, nil
}

// ConventionalChain builds the paper's Fig. 2 CTMC: a RAID array with
// single-failure tolerance under conventional replacement.
//
//	OP  --n*lambda-->        EXP
//	EXP --(n-1)*lambda-->    DL
//	EXP --(1-hep)*muDF-->    OP
//	EXP --hep*muDF-->        DU
//	DU  --(1-hep)*muHE-->    DUR (or OP when ResyncAfterUndo is false)
//	DU  --lambdaCrash-->     DL
//	DUR --muDDF-->           OP
//	DL  --muDDF-->           OP
//
// The figure's hep*muHE self-loop on DU is the failed undo attempt; in
// continuous time it is captured by the effective exit rate
// (1-hep)*muHE. See Params.ResyncAfterUndo for the DUR phase.
func ConventionalChain(p Params) (*markov.CTMC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := float64(p.Disks)
	b := markov.NewBuilder()
	b.At(StateOP, StateEXP, n*p.Lambda)
	b.At(StateEXP, StateDL, (n-1)*p.Lambda+p.LSERate)
	b.At(StateEXP, StateOP, (1-p.HEP)*p.MuDF)
	b.At(StateEXP, StateDU, p.HEP*p.MuDF)
	if p.ResyncAfterUndo {
		b.At(StateDU, StateDUR, (1-p.HEP)*p.MuHE)
		b.At(StateDUR, StateOP, p.MuDDF)
	} else {
		b.At(StateDU, StateOP, (1-p.HEP)*p.MuHE)
	}
	b.At(StateDU, StateDL, p.LambdaCrash)
	b.At(StateDL, StateOP, p.MuDDF)
	return b.Build()
}

// Conventional solves the Fig. 2 model. Up states: OP and EXP; the
// human-error downtime bucket covers DU and (when present) DUR.
func Conventional(p Params) (*Result, error) {
	c, err := ConventionalChain(p)
	if err != nil {
		return nil, err
	}
	du := []string{StateDU}
	if p.ResyncAfterUndo {
		du = append(du, StateDUR)
	}
	return solve(c,
		[]string{StateOP, StateEXP},
		du,
		[]string{StateDL})
}

// MTTDL returns the mean time (hours) until the first data-loss event
// under the conventional model, treating DL as absorbing.
func MTTDL(p Params) (float64, error) {
	c, err := ConventionalChain(p)
	if err != nil {
		return 0, err
	}
	return c.MeanTimeToAbsorption(StateOP, StateDL)
}

// FailoverMTTDL returns the mean time (hours) until the first
// data-loss event under the automatic fail-over model, treating both
// DL and DLns as absorbing.
func FailoverMTTDL(p FailoverParams) (float64, error) {
	c, err := FailoverChain(p)
	if err != nil {
		return 0, err
	}
	return c.MeanTimeToAbsorption(StateOP, StateDL, StateDLns)
}

// FailoverParams extends Params with the automatic fail-over rates.
type FailoverParams struct {
	Params
	// MuS is the on-line rebuild-to-hot-spare rate (1/h); the paper
	// sets it to 1.
	MuS float64
	// MuCH is the physical swap service rate (replenishing the spare
	// slot / changing the failed disk).
	MuCH float64
	// InstallAsSpare enables the Fig. 3 EXPns1 --(1-hep)muCH--> EXP1
	// branch (installing the new disk as a spare so the on-line
	// rebuild can take over). Disable to match the single-service
	// Monte-Carlo discipline.
	InstallAsSpare bool
	// DownAltService enables the Fig. 3 alternative services in the
	// unavailable states: restore-from-backup (muDDF) directly out of
	// DUns1/DU1 and the failed-disk swap (muCH) that moves
	// DUns1->DU1, DU1->EXP2 and DLns->DL. Disable to match the
	// Monte-Carlo discipline in which the operator always undoes the
	// human error first.
	DownAltService bool
}

// PaperFailover returns the fail-over defaults: base Paper(n, lambda,
// hep) plus muS = 0.1 (the 10-hour on-line rebuild of the paper's
// Fig. 1 walk-through; it also makes the hep = 0 availability match
// the conventional policy as in the paper's Fig. 7) and muCH = 1 (the
// quick physical swap, the paper's "muS = 1" constant read as the
// spare-handling service). Both Fig. 3 interpretation branches are
// enabled.
func PaperFailover(n int, lambda, hep float64) FailoverParams {
	return FailoverParams{
		Params:         Paper(n, lambda, hep),
		MuS:            0.1,
		MuCH:           1,
		InstallAsSpare: true,
		DownAltService: true,
	}
}

// Validate extends Params.Validate with the fail-over rates.
func (p FailoverParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.MuS <= 0 {
		return fmt.Errorf("model: muS %v must be positive", p.MuS)
	}
	if p.MuCH <= 0 {
		return fmt.Errorf("model: muCH %v must be positive", p.MuCH)
	}
	return nil
}

// FailoverChain builds the paper's Fig. 3 CTMC for a RAID array with
// a hot spare and the delayed (automatic fail-over) replacement
// policy. The b.At calls below are the full transition table;
// InstallAsSpare and DownAltService are the interpretation knobs.
func FailoverChain(p FailoverParams) (*markov.CTMC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := float64(p.Disks)
	l := p.Lambda
	hep := p.HEP
	b := markov.NewBuilder()

	// Spare present, no human involvement while rebuilding.
	b.At(StateOP, StateEXP1, n*l)
	b.At(StateEXP1, StateDL, (n-1)*l)
	b.At(StateEXP1, StateOPns, p.MuS)

	// Spare consumed: the technician replenishes it; a wrong pull
	// here leaves the array degraded but up (EXPns2).
	b.At(StateOPns, StateEXPns1, n*l)
	b.At(StateOPns, StateOP, (1-hep)*p.MuCH)
	b.At(StateOPns, StateEXPns2, hep*p.MuCH)

	// Exposed with no spare: direct replace-and-rebuild (muDF) and,
	// optionally, installing the new disk as a spare (muCH).
	installRate := 0.0
	if p.InstallAsSpare {
		installRate = p.MuCH
	}
	b.At(StateEXPns1, StateDLns, (n-1)*l)
	b.At(StateEXPns1, StateOPns, (1-hep)*p.MuDF)
	b.At(StateEXPns1, StateEXP1, (1-hep)*installRate)
	b.At(StateEXPns1, StateDUns1, hep*(p.MuDF+installRate))

	// Healthy member pulled, no failed member, no spare.
	b.At(StateEXPns2, StateDUns1, (n-1)*l)
	b.At(StateEXPns2, StateOP, (1-hep)*p.MuHE)
	b.At(StateEXPns2, StateDUns2, hep*p.MuHE)
	b.At(StateEXPns2, StateEXPns1, p.LambdaCrash)

	// Unavailable: failed + pulled, no spare.
	b.At(StateDUns1, StateEXPns1, (1-hep)*p.MuHE)
	b.At(StateDUns1, StateDLns, p.LambdaCrash)

	// Unavailable: two pulled, no spare.
	b.At(StateDUns2, StateEXPns2, (1-hep)*p.MuHE)
	b.At(StateDUns2, StateDUns1, 2*p.LambdaCrash)

	// Data loss.
	b.At(StateDLns, StateOPns, p.MuDDF)
	b.At(StateDL, StateOP, p.MuDDF)

	if p.DownAltService {
		// Alternative services while down (Fig. 3): direct restore
		// from backup and failed-disk replacement, which open up the
		// with-spare variants EXP2 / DU1 / DU2.
		b.At(StateDUns1, StateOPns, p.MuDDF)
		b.At(StateDUns1, StateDU1, (1-hep)*p.MuCH)
		b.At(StateDLns, StateDL, (1-hep)*p.MuCH)

		b.At(StateEXP2, StateDU1, (n-1)*l)
		b.At(StateEXP2, StateOP, (1-hep)*p.MuHE)
		b.At(StateEXP2, StateDU2, hep*p.MuHE)
		b.At(StateEXP2, StateEXP1, p.LambdaCrash)

		b.At(StateDU1, StateEXP1, (1-hep)*p.MuHE)
		b.At(StateDU1, StateDL, p.LambdaCrash)
		b.At(StateDU1, StateOP, p.MuDDF)
		b.At(StateDU1, StateEXP2, (1-hep)*p.MuCH)

		b.At(StateDU2, StateEXP2, (1-hep)*p.MuHE)
		b.At(StateDU2, StateDU1, 2*p.LambdaCrash)
	}
	return b.Build()
}

// Failover solves the Fig. 3 model. Up states: OP, EXP1, OPns,
// EXPns1, EXPns2 and (when reachable) EXP2.
func Failover(p FailoverParams) (*Result, error) {
	c, err := FailoverChain(p)
	if err != nil {
		return nil, err
	}
	up := []string{StateOP, StateEXP1, StateOPns, StateEXPns1, StateEXPns2}
	du := []string{StateDUns1, StateDUns2}
	dl := []string{StateDL, StateDLns}
	if p.DownAltService {
		up = append(up, StateEXP2)
		du = append(du, StateDU1, StateDU2)
	}
	return solve(c, up, du, dl)
}

// DualParityChain extends the conventional model to a dual-parity
// (RAID6-style) array that tolerates two concurrent losses: a second
// exposed state EXPd precedes data loss, and a wrong pull in EXPd also
// exhausts the redundancy (DU). This is the package's extension beyond
// the paper (its future-work direction of stronger codes).
func DualParityChain(p Params) (*markov.CTMC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Disks < 4 {
		return nil, fmt.Errorf("model: dual parity needs at least 4 disks, got %d", p.Disks)
	}
	n := float64(p.Disks)
	hep := p.HEP
	b := markov.NewBuilder()
	b.At(StateOP, StateEXP, n*p.Lambda)
	b.At(StateEXP, StateEXPd, (n-1)*p.Lambda)
	b.At(StateEXP, StateOP, (1-hep)*p.MuDF)
	// A wrong pull while singly exposed leaves two members missing:
	// still up behind dual parity, modelled as landing in EXPd.
	b.At(StateEXP, StateEXPd, hep*p.MuDF)
	b.At(StateEXPd, StateDL, (n-2)*p.Lambda)
	b.At(StateEXPd, StateEXP, (1-hep)*p.MuDF)
	// A wrong pull while doubly exposed takes the third member: DU.
	b.At(StateEXPd, StateDU, hep*p.MuDF)
	if p.ResyncAfterUndo {
		b.At(StateDU, StateDUR, (1-hep)*p.MuHE)
		b.At(StateDUR, StateOP, p.MuDDF)
	} else {
		b.At(StateDU, StateEXPd, (1-hep)*p.MuHE)
	}
	b.At(StateDU, StateDL, p.LambdaCrash)
	b.At(StateDL, StateOP, p.MuDDF)
	return b.Build()
}

// DualParity solves the RAID6-style model. Up states: OP, EXP, EXPd.
func DualParity(p Params) (*Result, error) {
	c, err := DualParityChain(p)
	if err != nil {
		return nil, err
	}
	du := []string{StateDU}
	if p.ResyncAfterUndo {
		du = append(du, StateDUR)
	}
	return solve(c,
		[]string{StateOP, StateEXP, StateEXPd},
		du,
		[]string{StateDL})
}

// FleetAvailability composes count independent, identical arrays in
// series (user data spans all arrays, so every array must be up):
// A_fleet = A_array^count.
func FleetAvailability(arrayAvailability float64, count int) float64 {
	if count < 1 {
		panic(fmt.Sprintf("model: fleet count %d must be positive", count))
	}
	if arrayAvailability < 0 || arrayAvailability > 1 {
		panic(fmt.Sprintf("model: availability %v outside [0,1]", arrayAvailability))
	}
	return math.Pow(arrayAvailability, float64(count))
}

// UnderestimationRatio quantifies the paper's headline: how much the
// traditional (hep = 0) model underestimates unavailability compared
// to the same configuration with human errors. Returns
// unavail(hep) / unavail(0).
func UnderestimationRatio(p Params) (float64, error) {
	withHE, err := Conventional(p)
	if err != nil {
		return 0, err
	}
	p0 := p
	p0.HEP = 0
	without, err := Conventional(p0)
	if err != nil {
		return 0, err
	}
	u0 := without.Unavailability()
	if u0 == 0 {
		return math.Inf(1), nil
	}
	return withHE.Unavailability() / u0, nil
}
