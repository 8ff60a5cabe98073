package sim

import (
	"math"
	"testing"

	"herald/internal/model"
)

func TestRunFleetSingleEqualsArray(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	o := Options{Iterations: 500, MissionTime: 1e5, Seed: 3, Workers: 2}
	fleet, err := RunFleet(p, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Availability != fleet.Array.Availability {
		t.Fatalf("count=1 fleet %v != array %v", fleet.Availability, fleet.Array.Availability)
	}
	if fleet.HalfWidth != fleet.Array.HalfWidth {
		t.Fatal("count=1 half-width should match array")
	}
}

func TestRunFleetSeriesComposition(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	o := Options{Iterations: 1000, MissionTime: 1e5, Seed: 3, Workers: 2}
	fleet, err := RunFleet(p, 7, o)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(fleet.Array.Availability, 7)
	if math.Abs(fleet.Availability-want) > 1e-12 {
		t.Fatalf("fleet availability %v, want %v", fleet.Availability, want)
	}
	if fleet.Availability >= fleet.Array.Availability {
		t.Fatal("series fleet cannot beat a single array")
	}
	if fleet.HalfWidth <= fleet.Array.HalfWidth {
		t.Fatal("fleet CI must widen with count")
	}
	if fleet.Nines >= fleet.Array.Nines {
		t.Fatal("fleet nines must drop")
	}
}

func TestRunFleetMatchesMarkovComposition(t *testing.T) {
	lambda, hep := 1e-4, 0.01
	p := PaperDefaults(4, lambda, hep)
	o := Options{Iterations: 3000, MissionTime: 2e5, Seed: 11, Workers: 4, Confidence: 0.99}
	fleet, err := RunFleet(p, 7, o)
	if err != nil {
		t.Fatal(err)
	}
	want := model.FleetAvailability(exactAvailability(t, p, o.MissionTime), 7)
	tol := 4*fleet.HalfWidth + 0.03*(1-want)
	if diff := math.Abs(fleet.Availability - want); diff > tol {
		t.Fatalf("fleet MC %v vs Markov %v (diff %v, tol %v)", fleet.Availability, want, diff, tol)
	}
}

func TestRunFleetRejectsBadCount(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	if _, err := RunFleet(p, 0, Options{Iterations: 10, MissionTime: 100}); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestPowSmallIntegers(t *testing.T) {
	cases := []struct {
		a    float64
		n    int
		want float64
	}{
		{0.5, 0, 1}, {0.5, 1, 0.5}, {0.5, 2, 0.25}, {2, 10, 1024}, {0.999, 3, 0.999 * 0.999 * 0.999},
	}
	for _, c := range cases {
		if got := pow(c.a, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pow(%v,%d) = %v, want %v", c.a, c.n, got, c.want)
		}
	}
}
