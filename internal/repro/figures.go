package repro

import (
	"fmt"
	"math"

	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/raid"
	"herald/internal/report"
	"herald/internal/sim"
	"herald/internal/stats"
	"herald/internal/sweep"
)

// mcRun executes one Monte-Carlo point with the experiment options.
func mcRun(p sim.ArrayParams, o Options, pointSeed uint64) (sim.Summary, error) {
	return sim.Run(p, sim.Options{
		Iterations:  o.MCIterations,
		MissionTime: o.MissionTime,
		Seed:        o.Seed ^ pointSeed*0x9e3779b97f4a7c15,
		Workers:     o.Workers,
		Confidence:  o.Confidence,
	})
}

// Fig4 reproduces the paper's Fig. 4: validation of the Markov model
// against Monte-Carlo simulation for a RAID5 (3+1) array across disk
// failure rates, at hep = 0.001 and hep = 0.01. The paper's check is
// that every Markov point falls within the MC confidence interval.
func Fig4(opts Options) (*report.Table, error) {
	o := opts.withDefaults()
	t := report.NewTable(
		"Fig. 4 — MC simulation vs Markov model, RAID5(3+1), exponential failures",
		"lambda", "hep", "MC nines", "MC CI +/-", "Markov nines", "Markov in CI")
	lambdas := sweep.Linspace(5e-7, 5.5e-6, 6)
	for _, hep := range []float64{0.001, 0.01} {
		for i, l := range lambdas {
			p := sim.PaperDefaults(4, l, hep)
			mc, err := mcRun(p, o, uint64(i)+uint64(hep*1e5))
			if err != nil {
				return nil, err
			}
			mk, _, err := sim.Exact(p, o.MissionTime)
			if err != nil {
				return nil, err
			}
			t.AddRow(report.E(l), report.F(hep),
				report.MCNines(mc.Availability, mc.HalfWidth), ciNines(mc),
				report.F3(mk.Nines()), report.B(mc.Interval().Contains(mk.IntervalAvailability)))
		}
	}
	t.AddNote("MC: %d iterations x %.0fh mission, %.0f%% confidence (paper: 1e6 iterations)",
		o.MCIterations, o.MissionTime, o.Confidence*100)
	t.AddNote("Markov: the chain's interval availability over the same %.0fh mission (sim.Exact)", o.MissionTime)
	return t, nil
}

// ciNines is the width of a Monte-Carlo interval in nines: the
// distance from the estimate to the interval's lower end. It has no
// width to print ("-") when the estimate is a bound (no downtime
// observed) or the interval reaches availability 0.
func ciNines(mc sim.Summary) string {
	if lo := mc.Availability - mc.HalfWidth; mc.Availability < 1 && lo > 0 {
		return report.F3(math.Abs(stats.Nines(lo) - mc.Nines))
	}
	return "-"
}

// Fig5 reproduces the paper's Fig. 5: availability of a RAID5 (3+1)
// array versus human error probability, for the paper's four
// (failure rate, Weibull shape) pairs. The Monte-Carlo model runs the
// Weibull law; the Markov column is the exact answer of the same point
// with an exponential TTF, for reference.
func Fig5(opts Options) (*report.Table, error) {
	o := opts.withDefaults()
	t := report.NewTable(
		"Fig. 5 — RAID5(3+1) availability vs hep, Weibull failures (MC) and exponential (Markov)",
		"lambda", "beta", "hep", "MC-Weibull nines", "MC CI +/-", "Markov-exp nines")
	pairs := []struct{ rate, beta float64 }{
		{1.25e-6, 1.09}, {2.17e-6, 1.12}, {7.96e-6, 1.21}, {2.00e-5, 1.48},
	}
	for pi, pr := range pairs {
		for hi, hep := range []float64{0, 0.001, 0.01} {
			p := sim.PaperDefaults(4, pr.rate, hep)
			mk, _, err := sim.Exact(p, o.MissionTime)
			if err != nil {
				return nil, err
			}
			p.TTF = dist.WeibullFromMeanRate(pr.rate, pr.beta)
			mc, err := mcRun(p, o, uint64(pi*10+hi))
			if err != nil {
				return nil, err
			}
			t.AddRow(report.E(pr.rate), report.F(pr.beta), report.F(hep),
				report.MCNines(mc.Availability, mc.HalfWidth), ciNines(mc), report.F3(mk.Nines()))
		}
	}
	t.AddNote("MC: %d iterations x %.0fh mission, %.0f%% confidence (paper: 1e6 iterations)",
		o.MCIterations, o.MissionTime, o.Confidence*100)
	t.AddNote("Weibull scale chosen so the MTTF equals 1/lambda (paper Fig. 5 pairs)")
	t.AddNote("Markov-exp: the exponential chain's interval availability over the same %.0fh mission (sim.Exact)", o.MissionTime)
	return t, nil
}

// Fig6 reproduces the paper's Fig. 6 (a-c): availability of RAID
// configurations with equivalent usable capacity — RAID1(1+1),
// RAID5(3+1), RAID5(7+1) fleets providing 21 disk units of usable
// capacity — versus hep, for failure rates 1e-5, 1e-6 and 1e-7.
func Fig6(opts Options) ([]*report.Table, error) {
	configs := []raid.Config{raid.R1Mirror, raid.R5Small, raid.R5Wide}
	capacity, err := raid.EquivalentCapacity(configs...)
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	panels := []struct {
		panel  string
		lambda float64
	}{
		{"a", 1e-5}, {"b", 1e-6}, {"c", 1e-7},
	}
	for _, pn := range panels {
		t := report.NewTable(
			fmt.Sprintf("Fig. 6%s — equal usable capacity (%d units), lambda=%s",
				pn.panel, capacity, report.E(pn.lambda)),
			"config", "arrays", "disks", "ERF",
			"nines hep=0", "nines hep=0.001", "nines hep=0.01")
		for _, cfg := range configs {
			fleet, err := raid.PlanFleet(cfg, capacity)
			if err != nil {
				return nil, err
			}
			row := []string{
				cfg.String(),
				fmt.Sprintf("%d", fleet.Count),
				fmt.Sprintf("%d", fleet.TotalDisks()),
				report.F3(cfg.ERF()),
			}
			for _, hep := range []float64{0, 0.001, 0.01} {
				res, err := model.Conventional(model.Paper(cfg.Disks(), pn.lambda, hep))
				if err != nil {
					return nil, err
				}
				fleetAvail := model.FleetAvailability(res.Availability, fleet.Count)
				row = append(row, report.F3(stats.Nines(fleetAvail)))
			}
			t.AddRow(row...)
		}
		t.AddNote("fleet availability = array availability ^ arrays (series composition)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 reproduces the paper's Fig. 7: availability of a RAID5 (3+1)
// array under the conventional replacement policy versus the automatic
// fail-over (delayed replacement) policy, at lambda = 1e-6.
func Fig7(opts Options) (*report.Table, error) {
	const lambda = 1e-6
	t := report.NewTable(
		"Fig. 7 — conventional vs automatic fail-over, RAID5(3+1), lambda=1e-06",
		"hep", "conventional nines", "delayed (fail-over) nines", "unavailability gain")
	for _, hep := range []float64{0, 0.001, 0.01} {
		conv, err := model.Conventional(model.Paper(4, lambda, hep))
		if err != nil {
			return nil, err
		}
		fo, err := model.Failover(model.PaperFailover(4, lambda, hep))
		if err != nil {
			return nil, err
		}
		gain := 1.0
		if fu := fo.Unavailability(); fu > 0 {
			gain = conv.Unavailability() / fu
		}
		t.AddRow(report.F(hep), report.F3(conv.Nines()), report.F3(fo.Nines()), report.F(gain))
	}
	t.AddNote("paper §V-D: fail-over buys ~2 orders of magnitude at hep=0.01")
	return t, nil
}

// Underestimation reproduces the headline claim: ignoring human
// errors underestimates unavailability by up to three orders of
// magnitude (263x in the paper's sweep). The table reports
// unavail(hep)/unavail(0) over the paper's failure-rate range.
func Underestimation(opts Options) (*report.Table, error) {
	t := report.NewTable(
		"Headline — downtime underestimation when ignoring human error, RAID5(3+1)",
		"lambda", "hep", "unavail(hep)", "unavail(0)", "ratio")
	maxRatio := 0.0
	maxAt := ""
	for _, l := range []float64{1.25e-6, 2.17e-6, 7.96e-6, 2.00e-5} {
		base, err := model.Conventional(model.Paper(4, l, 0))
		if err != nil {
			return nil, err
		}
		for _, hep := range []float64{0.001, 0.01} {
			ratio, err := model.UnderestimationRatio(model.Paper(4, l, hep))
			if err != nil {
				return nil, err
			}
			withHE, err := model.Conventional(model.Paper(4, l, hep))
			if err != nil {
				return nil, err
			}
			if ratio > maxRatio {
				maxRatio = ratio
				maxAt = fmt.Sprintf("lambda=%s hep=%s", report.E(l), report.F(hep))
			}
			t.AddRow(report.E(l), report.F(hep),
				report.E(withHE.Unavailability()), report.E(base.Unavailability()),
				report.F(ratio))
		}
	}
	t.AddNote("max ratio %.0fx at %s (paper: up to 263x)", maxRatio, maxAt)
	return t, nil
}

// Ablation sweeps the model's interpretation knobs: the post-undo
// resync phase (model.Params.ResyncAfterUndo) and the two Fig. 3
// service branches (model.FailoverParams.InstallAsSpare and
// DownAltService), plus the sensitivity of the fail-over gain to muCH.
func Ablation(opts Options) (*report.Table, error) {
	const lambda, hep = 1e-6, 0.01
	t := report.NewTable(
		"Ablation — interpretation knobs at lambda=1e-06, hep=0.01",
		"variant", "nines", "delta vs default")
	base, err := model.Conventional(model.Paper(4, lambda, hep))
	if err != nil {
		return nil, err
	}
	add := func(name string, nines float64) {
		t.AddRow(name, report.F3(nines), report.F3(nines-base.Nines()))
	}
	add("conventional (default: resync after undo)", base.Nines())

	lit := model.Paper(4, lambda, hep)
	lit.ResyncAfterUndo = false
	litRes, err := model.Conventional(lit)
	if err != nil {
		return nil, err
	}
	add("conventional, literal Fig.2 (no resync)", litRes.Nines())

	fo, err := model.Failover(model.PaperFailover(4, lambda, hep))
	if err != nil {
		return nil, err
	}
	add("fail-over (full Fig.3)", fo.Nines())

	reduced := model.PaperFailover(4, lambda, hep)
	reduced.InstallAsSpare = false
	reduced.DownAltService = false
	foRed, err := model.Failover(reduced)
	if err != nil {
		return nil, err
	}
	add("fail-over, reduced (MC discipline)", foRed.Nines())

	for _, muCH := range []float64{0.1, 1, 10} {
		p := model.PaperFailover(4, lambda, hep)
		p.MuCH = muCH
		res, err := model.Failover(p)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("fail-over, muCH=%g", muCH), res.Nines())
	}
	t.AddNote("delta is in nines; positive means higher availability than the default conventional model")
	return t, nil
}
