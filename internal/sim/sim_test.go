package sim

import (
	"math"
	"testing"
	"testing/quick"

	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/xrand"
)

// runFast executes a small Monte-Carlo run with fixed seed/workers so
// results are reproducible in tests.
func runFast(t *testing.T, p ArrayParams, iters int, mission float64) Summary {
	t.Helper()
	s, err := Run(p, Options{
		Iterations:  iters,
		MissionTime: mission,
		Seed:        12345,
		Workers:     4,
		Confidence:  0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertWithinCI checks that the analytic value lies inside the MC
// confidence interval widened by slack (structural second-order
// differences between simulator and chain).
func assertWithinCI(t *testing.T, name string, mc Summary, analytic float64) {
	t.Helper()
	tol := 4*mc.HalfWidth + 0.03*(1-analytic)
	if diff := math.Abs(mc.Availability - analytic); diff > tol {
		t.Errorf("%s: MC availability %v vs analytic %v (diff %.3g, tol %.3g)",
			name, mc.Availability, analytic, diff, tol)
	}
}

func TestConventionalMatchesMarkovNoHumanError(t *testing.T) {
	lambda := 1e-4
	p := PaperDefaults(4, lambda, 0)
	mc := runFast(t, p, 3000, 2e5)
	res, err := model.Conventional(model.Paper(4, lambda, 0))
	if err != nil {
		t.Fatal(err)
	}
	assertWithinCI(t, "hep=0", mc, res.Availability)
	if mc.Events.HumanErrors != 0 {
		t.Errorf("human errors = %d at hep=0", mc.Events.HumanErrors)
	}
	if mc.Events.Failures == 0 || mc.Events.DoubleFailures == 0 {
		t.Errorf("expected failures and double failures, got %+v", mc.Events)
	}
}

func TestConventionalMatchesMarkovWithHumanError(t *testing.T) {
	// The paper's §V-A validation: Markov results must fall within
	// the MC confidence interval. Large lambda for dense statistics.
	for _, hep := range []float64{0.001, 0.01} {
		lambda := 1e-4
		p := PaperDefaults(4, lambda, hep)
		mc := runFast(t, p, 3000, 2e5)
		res, err := model.Conventional(model.Paper(4, lambda, hep))
		if err != nil {
			t.Fatal(err)
		}
		assertWithinCI(t, "hep="+floatStr(hep), mc, res.Availability)
		if mc.Events.HumanErrors == 0 {
			t.Errorf("hep=%v: no human errors simulated", hep)
		}
	}
}

func floatStr(f float64) string {
	switch f {
	case 0.001:
		return "0.001"
	case 0.01:
		return "0.01"
	default:
		return "?"
	}
}

func TestConventionalLiteralFigureVariant(t *testing.T) {
	// With ResyncAfterUndo disabled both MC and Markov use the
	// literal Fig. 2 shape; they must still agree.
	lambda, hep := 1e-4, 0.01
	p := PaperDefaults(4, lambda, hep)
	p.ResyncAfterUndo = false
	mc := runFast(t, p, 3000, 2e5)
	mp := model.Paper(4, lambda, hep)
	mp.ResyncAfterUndo = false
	res, err := model.Conventional(mp)
	if err != nil {
		t.Fatal(err)
	}
	assertWithinCI(t, "literal", mc, res.Availability)
}

func TestRAID1Simulation(t *testing.T) {
	lambda, hep := 1e-4, 0.01
	mc := runFast(t, PaperDefaults(2, lambda, hep), 3000, 2e5)
	res, err := model.Conventional(model.Paper(2, lambda, hep))
	if err != nil {
		t.Fatal(err)
	}
	assertWithinCI(t, "raid1", mc, res.Availability)
}

func TestFailoverMatchesReducedMarkov(t *testing.T) {
	// The MC fail-over discipline (single technician, undo-first)
	// corresponds to the Fig. 3 chain without the alternative service
	// branches: the two knobs switched off below.
	lambda, hep := 1e-4, 0.02
	p := PaperDefaults(4, lambda, hep)
	p.Policy = AutoFailover
	mc := runFast(t, p, 3000, 2e5)

	mp := model.PaperFailover(4, lambda, hep)
	mp.InstallAsSpare = false
	mp.DownAltService = false
	res, err := model.Failover(mp)
	if err != nil {
		t.Fatal(err)
	}
	assertWithinCI(t, "failover", mc, res.Availability)
}

func TestFailoverBeatsConventionalMC(t *testing.T) {
	lambda, hep := 1e-4, 0.02
	conv := runFast(t, PaperDefaults(4, lambda, hep), 2000, 2e5)
	fp := PaperDefaults(4, lambda, hep)
	fp.Policy = AutoFailover
	fo := runFast(t, fp, 2000, 2e5)
	if fo.Availability <= conv.Availability {
		t.Fatalf("fail-over %v not above conventional %v", fo.Availability, conv.Availability)
	}
}

func TestWeibullShapeOneMatchesExponential(t *testing.T) {
	lambda, hep := 1e-4, 0.01
	pExp := PaperDefaults(4, lambda, hep)
	pWb := pExp
	pWb.TTF = dist.WeibullFromMeanRate(lambda, 1)
	a := runFast(t, pExp, 2000, 2e5)
	b := runFast(t, pWb, 2000, 2e5)
	tol := 3 * (a.HalfWidth + b.HalfWidth)
	if diff := math.Abs(a.Availability - b.Availability); diff > tol {
		t.Fatalf("weibull(1) %v vs exponential %v (diff %.3g > tol %.3g)",
			b.Availability, a.Availability, diff, tol)
	}
}

func TestWeibullWearOutRuns(t *testing.T) {
	p := PaperDefaults(4, 2e-5, 0.01)
	p.TTF = dist.WeibullFromMeanRate(2e-5, 1.48) // the paper's steepest shape
	s := runFast(t, p, 500, 2e5)
	if s.Availability <= 0 || s.Availability > 1 {
		t.Fatalf("availability = %v", s.Availability)
	}
	if s.Events.Failures == 0 {
		t.Fatal("no failures simulated")
	}
}

func TestDeterminism(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	o := Options{Iterations: 500, MissionTime: 1e5, Seed: 7, Workers: 3}
	a, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesResult(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	a, _ := Run(p, Options{Iterations: 200, MissionTime: 1e5, Seed: 1, Workers: 2})
	b, _ := Run(p, Options{Iterations: 200, MissionTime: 1e5, Seed: 2, Workers: 2})
	if a.Availability == b.Availability && a.Events == b.Events {
		t.Fatal("different seeds produced identical results")
	}
}

func TestHEPOneStillTerminates(t *testing.T) {
	// Every service errs; undo attempts always fail, so DU ends only
	// by crash or further failure. Availability must stay in [0,1).
	p := PaperDefaults(4, 1e-4, 1)
	s := runFast(t, p, 200, 1e5)
	if s.Availability < 0 || s.Availability >= 1 {
		t.Fatalf("availability = %v", s.Availability)
	}
	if s.MeanDowntimeDU <= 0 {
		t.Fatal("expected DU downtime at hep=1")
	}
}

func TestShortMissionClipping(t *testing.T) {
	// Huge failure rate, tiny mission: downtime must never exceed the
	// mission time.
	p := PaperDefaults(4, 0.5, 0.5)
	s := runFast(t, p, 500, 10)
	if s.Availability < 0 || s.Availability > 1 {
		t.Fatalf("availability = %v", s.Availability)
	}
	if s.MeanDowntimeDU+s.MeanDowntimeDL > 10+1e-9 {
		t.Fatalf("downtime %v exceeds mission 10h",
			s.MeanDowntimeDU+s.MeanDowntimeDL)
	}
}

func TestAvailabilityDecreasesWithHEPMC(t *testing.T) {
	prev := math.Inf(1)
	for _, hep := range []float64{0, 0.01, 0.1} {
		s := runFast(t, PaperDefaults(4, 1e-4, hep), 2000, 2e5)
		if s.Availability >= prev {
			t.Fatalf("availability not decreasing at hep=%v", hep)
		}
		prev = s.Availability
	}
}

func TestSummaryDerivedFields(t *testing.T) {
	s := runFast(t, PaperDefaults(4, 1e-4, 0.01), 500, 1e5)
	if s.Nines <= 0 {
		t.Error("nines not positive")
	}
	iv := s.Interval()
	if !iv.Contains(s.Availability) {
		t.Error("interval excludes its own mean")
	}
	if math.Abs(s.Unavailability()-(1-s.Availability)) > 1e-15 {
		t.Error("unavailability mismatch")
	}
	if s.Iterations != 500 || s.MissionTime != 1e5 || s.Confidence != 0.99 {
		t.Error("configuration echo wrong")
	}
}

func TestValidationErrors(t *testing.T) {
	good := PaperDefaults(4, 1e-4, 0.01)
	goodOpts := Options{Iterations: 10, MissionTime: 100}

	bad := []ArrayParams{
		func() ArrayParams { p := good; p.Disks = 1; return p }(),
		func() ArrayParams { p := good; p.TTF = nil; return p }(),
		func() ArrayParams { p := good; p.Repair = nil; return p }(),
		func() ArrayParams { p := good; p.TapeRestore = nil; return p }(),
		func() ArrayParams { p := good; p.HEP = -0.1; return p }(),
		func() ArrayParams { p := good; p.HEP = 1.1; return p }(),
		func() ArrayParams { p := good; p.HERecovery = nil; return p }(),
		func() ArrayParams { p := good; p.CrashRate = -1; return p }(),
		func() ArrayParams { p := good; p.HEP = math.NaN(); return p }(),
		func() ArrayParams { p := good; p.CrashRate = math.NaN(); return p }(),
		func() ArrayParams { p := good; p.CrashRate = math.Inf(1); return p }(),
		func() ArrayParams { p := good; p.Policy = Policy(9); return p }(),
		func() ArrayParams {
			p := good
			p.Policy = AutoFailover
			p.SpareRebuild = nil
			return p
		}(),
	}
	for i, p := range bad {
		if _, err := Run(p, goodOpts); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}

	badOpts := []Options{
		{Iterations: 0, MissionTime: 100},
		{Iterations: 10, MissionTime: 0},
		{Iterations: 10, MissionTime: math.Inf(1)},
		{Iterations: 10, MissionTime: 100, Confidence: 1},
		{Iterations: 10, MissionTime: 100, Confidence: -0.5},
		{Iterations: 10, MissionTime: 100, HistogramBins: -1},
		{Iterations: 10, MissionTime: 100, HistogramBins: maxHistogramBins + 1},
		{Iterations: 10, MissionTime: 100, HistogramBins: 1 << 40},
		{Iterations: 10, MissionTime: 100, HistogramBins: 8, HistogramMaxHours: -5},
		{Iterations: 10, MissionTime: 100, HistogramBins: 8, HistogramMaxHours: math.NaN()},
		{Iterations: 10, MissionTime: 100, HistogramBins: 8, HistogramMaxHours: math.Inf(1)},
	}
	for i, o := range badOpts {
		if _, err := Run(good, o); err == nil {
			t.Errorf("opts case %d: invalid options accepted", i)
		}
	}
}

func TestHEPZeroNeedsNoHERecovery(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0)
	p.HERecovery = nil
	if _, err := Run(p, Options{Iterations: 50, MissionTime: 1e4}); err != nil {
		t.Fatalf("hep=0 without HERecovery rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if Conventional.String() != "conventional" || AutoFailover.String() != "auto-failover" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy renders empty")
	}
}

func TestWorkersMoreThanIterations(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0)
	s, err := Run(p, Options{Iterations: 3, MissionTime: 1e4, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 3 {
		t.Fatalf("iterations = %d", s.Iterations)
	}
}

func TestNextFailureHelper(t *testing.T) {
	fail := []float64{5, 2, 9}
	idx, at := nextFailure(fail, 0, noDisk, noDisk)
	if idx != 1 || at != 2 {
		t.Fatalf("got %d@%v", idx, at)
	}
	// Exclusions.
	idx, at = nextFailure(fail, 0, 1, noDisk)
	if idx != 0 || at != 5 {
		t.Fatalf("got %d@%v", idx, at)
	}
	// Clamping of expired clocks.
	_, at = nextFailure(fail, 3, 1, noDisk)
	if at != 5 {
		t.Fatalf("clamped at = %v", at)
	}
	_, at = nextFailure(fail, 7, 1, noDisk)
	if at != 7 {
		t.Fatalf("expired clock fired at %v, want now=7", at)
	}
	// Everything excluded.
	idx, at = nextFailure([]float64{1, 2}, 0, 0, 1)
	if idx != noDisk || !math.IsInf(at, 1) {
		t.Fatalf("got %d@%v", idx, at)
	}
}

func TestPickOther(t *testing.T) {
	r := xrand.New(3)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		k := pickOther(r, 4, 0, 2)
		if k == 0 || k == 2 {
			t.Fatalf("picked excluded index %d", k)
		}
		counts[k]++
	}
	if counts[1] == 0 || counts[3] == 0 {
		t.Fatalf("candidates not covered: %v", counts)
	}
}

func TestPickOtherPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pickOther(xrand.New(1), 2, 0, 1)
}

func TestExpInvInfiniteForZeroRate(t *testing.T) {
	r := xrand.New(1)
	if !math.IsInf(expInv(r, inv(0)), 1) {
		t.Fatal("zero rate should never fire")
	}
	if v := expInv(r, inv(2)); v <= 0 || math.IsInf(v, 1) {
		t.Fatalf("sample = %v", v)
	}
	if got := inv(4); got != 0.25 {
		t.Fatalf("inv(4) = %v", got)
	}
	if got := inv(-1); got != 0 {
		t.Fatalf("inv(-1) = %v", got)
	}
}

func TestQuickAvailabilityInRange(t *testing.T) {
	f := func(seed uint64, lRaw, hRaw uint8) bool {
		lambda := 1e-6 + float64(lRaw)/255*1e-3
		hep := float64(hRaw) / 255
		p := PaperDefaults(4, lambda, hep)
		s, err := Run(p, Options{Iterations: 20, MissionTime: 1e4, Seed: seed, Workers: 2})
		if err != nil {
			return false
		}
		return s.Availability >= 0 && s.Availability <= 1 &&
			s.MeanDowntimeDU >= 0 && s.MeanDowntimeDL >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickFailoverAvailabilityInRange(t *testing.T) {
	f := func(seed uint64, lRaw, hRaw uint8) bool {
		lambda := 1e-6 + float64(lRaw)/255*1e-3
		hep := float64(hRaw) / 255
		p := PaperDefaults(4, lambda, hep)
		p.Policy = AutoFailover
		s, err := Run(p, Options{Iterations: 20, MissionTime: 1e4, Seed: seed, Workers: 2})
		if err != nil {
			return false
		}
		return s.Availability >= 0 && s.Availability <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
