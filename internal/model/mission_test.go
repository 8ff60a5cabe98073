package model

import (
	"math"
	"testing"
)

func TestMissionConvergesToSteadyState(t *testing.T) {
	res, err := Conventional(Paper(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Mission(5e6)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.IntervalAvailability-res.Availability) / (1 - res.Availability); rel > 0.05 {
		t.Fatalf("long mission interval availability %v vs steady %v", m.IntervalAvailability, res.Availability)
	}
	if rel := math.Abs(m.PointAvailability-res.Availability) / (1 - res.Availability); rel > 0.05 {
		t.Fatalf("long mission point availability %v vs steady %v", m.PointAvailability, res.Availability)
	}
}

func TestYoungSystemBeatsSteadyState(t *testing.T) {
	// Starting from OP, a short mission sees less downtime than the
	// stationary fraction.
	res, err := Conventional(Paper(4, 1e-4, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Mission(100)
	if err != nil {
		t.Fatal(err)
	}
	if m.IntervalAvailability <= res.Availability {
		t.Fatalf("young system %v not above steady state %v", m.IntervalAvailability, res.Availability)
	}
	if m.ExpectedDowntimeHours < 0 || m.ExpectedDowntimeHours > 100 {
		t.Fatalf("downtime %v h over 100 h", m.ExpectedDowntimeHours)
	}
	if m.Nines() <= 0 {
		t.Fatal("mission nines not positive")
	}
}

func TestMissionFailoverModel(t *testing.T) {
	res, err := Failover(PaperFailover(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Mission(1e4)
	if err != nil {
		t.Fatal(err)
	}
	if m.IntervalAvailability <= 0 || m.IntervalAvailability > 1 {
		t.Fatalf("interval availability = %v", m.IntervalAvailability)
	}
}

// TestMissionKeepsDowntimeDigits pins Mission's unavailability to the
// down states' own integral. Read as 1 minus the up fraction, a U near
// 1e-10 keeps few digits: the dual-parity chain at HEP 0 read an
// interval availability above 1 and a negative downtime, and the
// reduced fail-over chain at lambda 1e-7 read U 34% low.
func TestMissionKeepsDowntimeDigits(t *testing.T) {
	reduced := PaperFailover(4, 1e-7, 0)
	reduced.InstallAsSpare, reduced.DownAltService = false, false
	const horizon = 87600
	for _, c := range []struct {
		name  string
		solve func() (*Result, error)
	}{
		{"dual parity, 4 disks, lambda 1e-6, HEP 0", func() (*Result, error) { return DualParity(Paper(4, 1e-6, 0)) }},
		{"reduced fail-over, lambda 1e-7, HEP 0", func() (*Result, error) { return Failover(reduced) }},
	} {
		res, err := c.solve()
		if err != nil {
			t.Fatal(err)
		}
		m, err := res.Mission(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if m.IntervalAvailability > 1 || !(m.ExpectedDowntimeHours > 0) {
			t.Errorf("%s: interval availability %v, downtime %v h", c.name, m.IntervalAvailability, m.ExpectedDowntimeHours)
		}
		up := make(map[string]bool)
		for _, s := range res.UpStates {
			up[s] = true
		}
		pi0 := make([]float64, res.Chain.N())
		down := make([]float64, res.Chain.N())
		for i, s := range res.Chain.StateNames() {
			if s == StateOP {
				pi0[i] = 1
			}
			if !up[s] {
				down[i] = 1
			}
		}
		want, err := res.Chain.AccumulatedReward(pi0, horizon, down)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(m.ExpectedDowntimeHours-want) / want; !(rel <= 1e-9) {
			t.Errorf("%s: downtime %v h, the down states integrate to %v h (rel %.3g)", c.name, m.ExpectedDowntimeHours, want, rel)
		}
	}
}

// TestMissionMatchesTwoSolves pins that Mission's one solve returns
// bit for bit what the two separate solves return: the down states'
// IntervalProbability and the up states' PointAvailability.
func TestMissionMatchesTwoSolves(t *testing.T) {
	for _, c := range []struct {
		name  string
		solve func() (*Result, error)
	}{
		{"conventional", func() (*Result, error) { return Conventional(Paper(4, 1e-6, 0.01)) }},
		{"failover", func() (*Result, error) { return Failover(PaperFailover(4, 1e-6, 0.01)) }},
		{"dualparity", func() (*Result, error) { return DualParity(Paper(6, 1e-6, 0.01)) }},
	} {
		res, err := c.solve()
		if err != nil {
			t.Fatal(err)
		}
		for _, horizon := range []float64{8760, 87600, 1e6} {
			m, err := res.Mission(horizon)
			if err != nil {
				t.Fatal(err)
			}
			down, err := res.Chain.IntervalProbability(StateOP, res.down, horizon)
			if err != nil {
				t.Fatal(err)
			}
			point, err := res.Chain.PointAvailability(StateOP, res.UpStates, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if m.IntervalAvailability != 1-down || m.ExpectedDowntimeHours != down*horizon || m.PointAvailability != point {
				t.Errorf("%s at %g h: Mission (%v, %v h, %v), two solves (%v, %v h, %v)", c.name, horizon,
					m.IntervalAvailability, m.ExpectedDowntimeHours, m.PointAvailability, 1-down, down*horizon, point)
			}
		}
	}
}

func TestMissionRejectsBadHorizon(t *testing.T) {
	res, err := Conventional(Paper(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Mission(0); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := res.Mission(-5); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestHourlyDTMCMatchesCTMC(t *testing.T) {
	p := Paper(4, 1e-6, 0.01)
	d, err := ConventionalHourlyDTMC(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Conventional(p)
	if err != nil {
		t.Fatal(err)
	}
	up, err := d.StationaryProbability(StateOP, StateEXP)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(up-res.Availability) > 1e-10 {
		t.Fatalf("DTMC availability %v vs CTMC %v", up, res.Availability)
	}
	// The figure's self-loop R1 = 1 - n*lambda.
	if got := d.Prob(StateOP, StateOP); math.Abs(got-(1-4e-6)) > 1e-12 {
		t.Fatalf("R1 = %v", got)
	}
}

func TestFailoverDTMC(t *testing.T) {
	d, err := FailoverDTMC(PaperFailover(4, 1e-6, 0.01), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 12 {
		t.Fatalf("state count = %d", d.N())
	}
	res, err := Failover(PaperFailover(4, 1e-6, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	up, err := d.StationaryProbability(res.UpStates...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(up-res.Availability) > 1e-9 {
		t.Fatalf("DTMC availability %v vs CTMC %v", up, res.Availability)
	}
}

func TestHourlyDTMCPropagatesValidation(t *testing.T) {
	bad := Paper(1, 1e-6, 0.01)
	if _, err := ConventionalHourlyDTMC(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestLSERateLowersAvailability(t *testing.T) {
	base, err := Conventional(Paper(4, 1e-5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	withLSE := Paper(4, 1e-5, 0.001)
	withLSE.LSERate = 1e-4 // unrecoverable sector hit during rebuild
	lse, err := Conventional(withLSE)
	if err != nil {
		t.Fatal(err)
	}
	if lse.Availability >= base.Availability {
		t.Fatalf("LSE model %v not below base %v", lse.Availability, base.Availability)
	}
	if lse.UnavailabilityDL <= base.UnavailabilityDL {
		t.Fatal("LSE should raise the data-loss mass")
	}
}

func TestLSERateValidation(t *testing.T) {
	p := Paper(4, 1e-5, 0.001)
	p.LSERate = -1
	if _, err := Conventional(p); err == nil {
		t.Fatal("negative LSE rate accepted")
	}
}

func TestFailoverMTTDLExceedsConventional(t *testing.T) {
	conv, err := MTTDL(Paper(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	fo, err := FailoverMTTDL(PaperFailover(4, 1e-5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if fo <= conv {
		t.Fatalf("fail-over MTTDL %v not above conventional %v", fo, conv)
	}
}

func TestFailoverMTTDLValidates(t *testing.T) {
	bad := PaperFailover(1, 1e-5, 0.01)
	if _, err := FailoverMTTDL(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}
