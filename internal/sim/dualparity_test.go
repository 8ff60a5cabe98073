package sim

import (
	"math"
	"testing"
)

func dpParams(lambda, hep float64) ArrayParams {
	p := PaperDefaults(6, lambda, hep)
	p.Policy = DualParity
	return p
}

func TestDualParityMatchesMarkovNoHumanError(t *testing.T) {
	p := dpParams(3e-4, 0) // dense triple-failure statistics
	mc := runFast(t, p, 3000, 2e5)
	assertWithinCI(t, "dual parity hep=0", mc, p)
	if mc.Events.DoubleFailures == 0 {
		t.Fatal("no triple-loss events sampled; test underpowered")
	}
}

func TestDualParityMatchesMarkovWithHumanError(t *testing.T) {
	p := dpParams(3e-4, 0.02)
	mc := runFast(t, p, 3000, 2e5)
	assertWithinCI(t, "dual parity hep=0.02", mc, p)
	if mc.Events.HumanErrors == 0 {
		t.Fatal("no human errors sampled")
	}
}

func TestDualParityLiteralVariant(t *testing.T) {
	p := dpParams(3e-4, 0.02)
	p.ResyncAfterUndo = false
	mc := runFast(t, p, 3000, 2e5)
	assertWithinCI(t, "dual parity literal", mc, p)
}

func TestDualParityBeatsSingleParityMC(t *testing.T) {
	lambda, hep := 3e-4, 0.01
	single := runFast(t, PaperDefaults(6, lambda, hep), 2000, 2e5)
	double := runFast(t, dpParams(lambda, hep), 2000, 2e5)
	if double.Availability <= single.Availability {
		t.Fatalf("dual parity %v not above single parity %v",
			double.Availability, single.Availability)
	}
}

func TestDualParityValidation(t *testing.T) {
	p := dpParams(1e-4, 0.01)
	p.Disks = 3
	if _, err := Run(p, Options{Iterations: 10, MissionTime: 100}); err == nil {
		t.Fatal("3-disk dual parity accepted")
	}
}

func TestDualParityPolicyString(t *testing.T) {
	if DualParity.String() != "dual-parity" {
		t.Fatal("policy name wrong")
	}
}

func TestNextFailure3(t *testing.T) {
	fail := []float64{5, 2, 9, 1, 7}
	idx, at := nextFailure3(fail, 0, 3, 1, 0)
	if idx != 4 || at != 7 {
		t.Fatalf("got %d@%v, want 4@7", idx, at)
	}
	idx, at = nextFailure3(fail[:3], 0, 0, 1, 2)
	if idx != noDisk || !math.IsInf(at, 1) {
		t.Fatalf("all-excluded gave %d@%v", idx, at)
	}
	// Past-due clamping.
	_, at = nextFailure3(fail, 8, 3, 1, 0)
	if at != 8 {
		t.Fatalf("clamped at %v, want 8", at)
	}
}
