package herald

import (
	"math"
	"strings"
	"testing"

	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/repro"
)

func TestQuickstartFlow(t *testing.T) {
	res, err := SolveConventional(PaperParams(4, 1e-6, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if res.Nines() < 6 || res.Nines() > 8 {
		t.Fatalf("RAID5(3+1) at lambda=1e-6 hep=0.001: %v nines", res.Nines())
	}
}

func TestFacadeModelConsistency(t *testing.T) {
	conv, err := SolveConventional(PaperParams(4, 1e-6, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	fo, err := SolveFailover(PaperFailoverParams(4, 1e-6, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if fo.Availability <= conv.Availability {
		t.Fatal("fail-over should beat conventional under human error")
	}
	dp, err := model.DualParity(PaperParams(6, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SolveConventional(PaperParams(6, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Availability <= sp.Availability {
		t.Fatal("dual parity should beat single parity")
	}
}

func TestFacadeSimulation(t *testing.T) {
	s, err := Simulate(PaperSimParams(4, 1e-4, 0.01), SimOptions{
		Iterations: 300, MissionTime: 1e5, Seed: 5, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Availability <= 0 || s.Availability >= 1 {
		t.Fatalf("availability = %v", s.Availability)
	}

	// The fingerprint refuses options that fail validation instead of
	// hashing them: with +Inf histogram hours the options could not
	// encode, and distinct runs would share one fingerprint.
	bad := SimOptions{Iterations: 1000, MissionTime: 1e5, Seed: 1, HistogramMaxHours: math.Inf(1)}
	other := bad
	other.Iterations, other.Seed = 5, 2
	for _, o := range []SimOptions{bad, other} {
		if fp, err := SimFingerprint(PaperSimParams(4, 1e-4, 0.01), o); err == nil {
			t.Errorf("SimFingerprint(%+v) = %s, want a validation error", o, fp)
		}
	}

	// The fingerprint resolves the kernel as availserve does: on an
	// exponential configuration auto runs the memoryless kernel, so the
	// two are one run with one fingerprint, and the generic kernel is
	// another run.
	fps := map[SimKernel]string{}
	for _, k := range []SimKernel{SimKernelAuto, SimKernelMemoryless, SimKernelGeneric} {
		fp, err := SimFingerprint(PaperSimParams(4, 1e-4, 0.01), SimOptions{Iterations: 64, MissionTime: 1e4, Seed: 7, Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		fps[k] = fp
	}
	if fps[SimKernelAuto] != fps[SimKernelMemoryless] {
		t.Errorf("auto fingerprint %s, memoryless %s: want one run", fps[SimKernelAuto], fps[SimKernelMemoryless])
	}
	if fps[SimKernelAuto] == fps[SimKernelGeneric] {
		t.Errorf("auto and generic kernels share fingerprint %s", fps[SimKernelAuto])
	}
}

// TestSimFingerprintRefusesNonFiniteParams: parameters that cannot
// encode are an error, never a fingerprint. The fingerprint drops what
// its encoder refuses, so a NaN HEP or crash rate that validated would
// leave only the options hashed, and these two runs would share a key.
func TestSimFingerprintRefusesNonFiniteParams(t *testing.T) {
	nanHEP := PaperSimParams(4, 1e-4, math.NaN())
	nanCrash := PaperSimParams(8, 1e-3, 0.001)
	nanCrash.CrashRate = math.NaN()
	o := SimOptions{Iterations: 2000, MissionTime: 1e5, Seed: 42}
	for _, p := range []SimParams{nanHEP, nanCrash} {
		if fp, err := SimFingerprint(p, o); err == nil {
			t.Errorf("SimFingerprint(%d disks, HEP %v, crash %v) = %s, want a validation error", p.Disks, p.HEP, p.CrashRate, fp)
		}
	}
}

func TestFacadeSimulationPolicies(t *testing.T) {
	p := PaperSimParams(4, 1e-4, 0.02)
	p.Policy = PolicyAutoFailover
	s, err := Simulate(p, SimOptions{Iterations: 300, MissionTime: 1e5, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Availability <= 0 {
		t.Fatalf("availability = %v", s.Availability)
	}
	dp := PaperSimParams(6, 1e-4, 0.02)
	dp.Policy = PolicyDualParity
	s2, err := Simulate(dp, SimOptions{Iterations: 300, MissionTime: 1e5, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Availability <= s.Availability-1 { // sanity only
		t.Fatalf("dual parity availability = %v", s2.Availability)
	}
}

func TestFacadeDistributions(t *testing.T) {
	if dist.NewExponential(0.1).Mean() != 10 {
		t.Error("exponential mean wrong")
	}
	w := WeibullFromMeanRate(1e-6, 1.48)
	if math.Abs(w.Mean()-1e6)/1e6 > 1e-12 {
		t.Errorf("weibull mean = %v", w.Mean())
	}
	if Weibull(2, 100).Mean() <= 0 {
		t.Error("weibull constructor broken")
	}
}

func TestFacadeNewDistributionFamilies(t *testing.T) {
	if dist.NewDeterministic(5).Mean() != 5 || dist.NewDeterministic(5).Var() != 0 {
		t.Error("deterministic moments wrong")
	}
	if dist.NewUniform(2, 10).Mean() != 6 {
		t.Error("uniform mean wrong")
	}
	if got, want := dist.NewLognormal(1, 0.5).Mean(), math.Exp(1.125); math.Abs(got-want) > 1e-12 {
		t.Errorf("lognormal mean = %v, want %v", got, want)
	}
	if got := dist.LognormalFromMeanMedian(20, 15).Mean(); math.Abs(got-20) > 1e-9 {
		t.Errorf("lognormal-from-moments mean = %v, want 20", got)
	}
	if dist.NewGamma(2.5, 0.5).Mean() != 5 {
		t.Error("gamma mean wrong")
	}
	if dist.NewErlang(4, 2).Mean() != 2 {
		t.Error("erlang mean wrong")
	}
	h := dist.NewHyperExponential([]float64{0.5, 0.5}, []float64{1, 0.1})
	if math.Abs(h.Mean()-5.5) > 1e-12 {
		t.Errorf("hyper-exponential mean = %v, want 5.5", h.Mean())
	}
	m := dist.NewMixture([]float64{1, 1}, dist.NewDeterministic(2), dist.NewDeterministic(4))
	if math.Abs(m.Mean()-3) > 1e-12 {
		t.Errorf("mixture mean = %v, want 3", m.Mean())
	}
	if got := dist.NormQuantile(0.975); math.Abs(got-1.959963984540054) > 1e-9 {
		t.Errorf("NormQuantile(0.975) = %v", got)
	}
	// New families plug straight into the simulator.
	p := PaperSimParams(4, 1e-4, 0.01)
	p.Repair = dist.NewErlang(3, 0.3)
	p.HERecovery = dist.NewHyperExponential([]float64{0.8, 0.2}, []float64{2, 0.1})
	s, err := Simulate(p, SimOptions{Iterations: 200, MissionTime: 1e5, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Availability <= 0 || s.Availability >= 1 {
		t.Fatalf("availability with phase-type services = %v", s.Availability)
	}
}

func TestFacadeRAIDPlanning(t *testing.T) {
	capacity, err := EquivalentCapacity(RAID1Mirror, RAID5Small, RAID5Wide)
	if err != nil {
		t.Fatal(err)
	}
	if capacity != 21 {
		t.Fatalf("capacity = %d", capacity)
	}
	fleet, err := PlanFleet(RAID5Small, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Count != 7 {
		t.Fatalf("fleet count = %d", fleet.Count)
	}
}

func TestFacadeMetrics(t *testing.T) {
	if math.Abs(Nines(0.999)-3) > 1e-9 {
		t.Error("nines wrong")
	}
	if d := DowntimeHoursPerYear(0.99); d < 80 || d > 95 {
		t.Errorf("two-nines downtime = %v h/yr", d)
	}
	if FleetAvailability(0.9, 2) != 0.81 {
		t.Error("fleet availability wrong")
	}
}

func TestFacadeHeadline(t *testing.T) {
	ratio, err := UnderestimationRatio(PaperParams(4, 1.31e-6, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 263x headline point.
	if ratio < 200 || ratio > 350 {
		t.Fatalf("underestimation ratio = %v, want ~263", ratio)
	}
	mttdl, err := model.MTTDL(PaperParams(4, 1e-6, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if mttdl <= 0 {
		t.Fatalf("MTTDL = %v", mttdl)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(repro.All()) < 5 {
		t.Fatal("experiment list too short")
	}
	tables, err := repro.Run("7", repro.Options{MCIterations: 50, MissionTime: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "Fig. 7") {
		t.Fatal("Fig. 7 experiment malformed")
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	var sb strings.Builder
	err := repro.RunAll(&sb, repro.Options{MCIterations: 100, MissionTime: 1e5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig. 6c") {
		t.Fatal("missing panel in full run")
	}
}

func TestVersion(t *testing.T) {
	if Version == "" {
		t.Fatal("empty version")
	}
}
