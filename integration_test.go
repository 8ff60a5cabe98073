package herald

// Integration tests crossing the package layers: the three model
// formalisms (CTMC, hourly DTMC, Monte-Carlo) must tell one story, and
// the field-study pipeline must carry a ground truth end to end.

import (
	"math"
	"testing"

	"herald/internal/human"
	"herald/internal/model"
	"herald/internal/trace"
	"herald/internal/xrand"
)

// TestThreeFormalismsAgree pins the Fig. 2 model's availability across
// the continuous chain, its hourly discretization and the simulator.
func TestThreeFormalismsAgree(t *testing.T) {
	const lambda, hep = 1e-4, 0.01
	p := PaperParams(4, lambda, hep)

	ctmc, err := SolveConventional(p)
	if err != nil {
		t.Fatal(err)
	}

	dtmc, err := model.ConventionalHourlyDTMC(p)
	if err != nil {
		t.Fatal(err)
	}
	dtmcUp, err := dtmc.StationaryProbability("OP", "EXP")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dtmcUp-ctmc.Availability) > 1e-9 {
		t.Fatalf("DTMC %v vs CTMC %v", dtmcUp, ctmc.Availability)
	}

	mc, err := Simulate(PaperSimParams(4, lambda, hep), SimOptions{
		Iterations: 4000, MissionTime: 2e5, Seed: 1234, Workers: 4, Confidence: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	tol := 4*mc.HalfWidth + 0.03*(1-ctmc.Availability)
	if diff := math.Abs(mc.Availability - ctmc.Availability); diff > tol {
		t.Fatalf("MC %v vs CTMC %v (diff %v, tol %v)", mc.Availability, ctmc.Availability, diff, tol)
	}
}

// TestFieldStudyPipelineEndToEnd hides a Weibull ground truth inside a
// synthetic log and checks that fit -> model recovers the availability
// verdict of the ground truth.
func TestFieldStudyPipelineEndToEnd(t *testing.T) {
	const trueRate, trueShape = 2e-5, 1.3
	hidden := WeibullFromMeanRate(trueRate, trueShape)
	log := trace.Generate(hidden, 4000, 2e5, xrand.New(99))

	choice, err := trace.Choose(log)
	if err != nil {
		t.Fatal(err)
	}
	if !choice.WeibullPreferred {
		t.Fatal("AIC missed the wear-out signal")
	}
	if rel := math.Abs(choice.WeibullShape-trueShape) / trueShape; rel > 0.1 {
		t.Fatalf("fitted shape %v, truth %v", choice.WeibullShape, trueShape)
	}

	// Availability from fitted rate vs from true rate.
	fitted, err := SolveConventional(PaperParams(4, choice.ImpliedMeanRate, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := SolveConventional(PaperParams(4, trueRate, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(fitted.Unavailability()-truth.Unavailability()) / truth.Unavailability(); rel > 0.1 {
		t.Fatalf("fitted unavailability %v vs truth %v", fitted.Unavailability(), truth.Unavailability())
	}
}

// TestProcedureFeedsModel derives hep from a THERP-style procedure and
// pushes it through the availability model.
func TestProcedureFeedsModel(t *testing.T) {
	proc := human.DiskReplacementProcedure(human.HEPEnterpriseHigh)
	hep, err := proc.ErrorProbabilityTotal()
	if err != nil {
		t.Fatal(err)
	}
	if hep <= 0 || hep > 0.1 {
		t.Fatalf("procedure hep = %v outside the paper band", hep)
	}
	res, err := SolveConventional(PaperParams(4, 1e-6, float64(hep)))
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := SolveConventional(PaperParams(4, 1e-6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability >= perfect.Availability {
		t.Fatal("procedure-derived hep should cost availability")
	}
}

// TestMissionConsistencyAcrossPolicies checks finite-horizon metrics
// behave sanely for both policies.
func TestMissionConsistencyAcrossPolicies(t *testing.T) {
	conv, err := SolveConventional(PaperParams(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	fo, err := SolveFailover(PaperFailoverParams(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*ModelResult{conv, fo} {
		m, err := res.Mission(8766) // one year
		if err != nil {
			t.Fatal(err)
		}
		if m.IntervalAvailability < res.Availability-1e-12 {
			t.Fatalf("first-year availability %v below steady state %v", m.IntervalAvailability, res.Availability)
		}
		if m.ExpectedDowntimeHours < 0 {
			t.Fatal("negative downtime")
		}
	}
	// Fail-over must also win on the finite horizon.
	mc, _ := conv.Mission(8766)
	mf, _ := fo.Mission(8766)
	if mf.IntervalAvailability <= mc.IntervalAvailability {
		t.Fatal("fail-over should win the first year too")
	}
}

// TestFleetSimMatchesFleetModel closes the loop between SimulateFleet
// and the analytic series composition.
func TestFleetSimMatchesFleetModel(t *testing.T) {
	const lambda, hep, count = 1e-4, 0.01, 5
	fleet, err := SimulateFleet(PaperSimParams(4, lambda, hep), count, SimOptions{
		Iterations: 3000, MissionTime: 2e5, Seed: 77, Workers: 4, Confidence: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveConventional(PaperParams(4, lambda, hep))
	if err != nil {
		t.Fatal(err)
	}
	want := FleetAvailability(res.Availability, count)
	tol := 4*fleet.HalfWidth + 0.03*(1-want)
	if diff := math.Abs(fleet.Availability - want); diff > tol {
		t.Fatalf("fleet MC %v vs model %v (diff %v, tol %v)", fleet.Availability, want, diff, tol)
	}
}

// TestPaperNarrative walks the full claim chain as a single scenario.
func TestPaperNarrative(t *testing.T) {
	// 1. Traditional model says RAID1 mirrors are safest.
	r1, _ := SolveConventional(PaperParams(2, 1e-5, 0))
	r5, _ := SolveConventional(PaperParams(4, 1e-5, 0))
	f1 := FleetAvailability(r1.Availability, 21)
	f5 := FleetAvailability(r5.Availability, 7)
	if f1 <= f5 {
		t.Fatal("step 1 failed: RAID1 should lead without human error")
	}
	// 2. Add realistic human error: the ranking flips.
	r1h, _ := SolveConventional(PaperParams(2, 1e-5, 0.01))
	r5h, _ := SolveConventional(PaperParams(4, 1e-5, 0.01))
	f1h := FleetAvailability(r1h.Availability, 21)
	f5h := FleetAvailability(r5h.Availability, 7)
	if f1h >= f5h {
		t.Fatal("step 2 failed: ranking should flip at hep=0.01")
	}
	// 3. The traditional model underestimated downtime by orders of
	// magnitude.
	ratio, err := UnderestimationRatio(PaperParams(4, 1.31e-6, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 100 {
		t.Fatalf("step 3 failed: ratio %v", ratio)
	}
	// 4. Automatic fail-over buys the loss back.
	conv, _ := SolveConventional(PaperParams(4, 1e-6, 0.01))
	fo, _ := SolveFailover(PaperFailoverParams(4, 1e-6, 0.01))
	if conv.Unavailability()/fo.Unavailability() < 50 {
		t.Fatal("step 4 failed: fail-over gain too small")
	}
}
