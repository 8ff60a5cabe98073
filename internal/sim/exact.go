package sim

import "herald/internal/model"

// Exact is the exact twin of a memoryless run, and the one place the
// simulator's parameters meet the chains: it solves the Markov chain
// of p (the rates memorylessRates resolves, HEP, CrashRate and
// ResyncAfterUndo; fail-over with InstallAsSpare and DownAltService
// off, the walkers' one service at a time, undo first) over the
// mission, starting with every member up. It answers (zero, false,
// nil) when a law the policy draws from is not exponential, and
// Validate's error for invalid parameters.
//
// The chains omit two refinements of the walkers: the generic walkers
// age survivors through outages (see conventional_memoryless.go), and
// every walker races a member failure against the undo during a
// wrong-pull outage (DU), whose share of the unavailability is of
// order lambda/muHE.
func Exact(p ArrayParams, mission float64) (model.MissionResult, bool, error) {
	if err := p.Validate(); err != nil {
		return model.MissionResult{}, false, err
	}
	m, ok := memorylessRates(&p)
	if !ok {
		return model.MissionResult{}, false, nil
	}
	mp := model.Params{
		Disks: p.Disks, Lambda: m.lambda, MuDF: m.muDF, MuDDF: m.muDDF, MuHE: m.muHE,
		HEP: p.HEP, LambdaCrash: p.CrashRate, ResyncAfterUndo: p.ResyncAfterUndo,
	}
	var res *model.Result
	var err error
	switch p.Policy {
	case AutoFailover:
		res, err = model.Failover(model.FailoverParams{Params: mp, MuS: m.muS, MuCH: m.muCH})
	case DualParity:
		res, err = model.DualParity(mp)
	default:
		res, err = model.Conventional(mp)
	}
	if err != nil {
		return model.MissionResult{}, false, err
	}
	r, err := res.Mission(mission)
	return r, err == nil, err
}
