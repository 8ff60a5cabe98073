package sim

import (
	"math"
	"testing"

	"herald/internal/dist"
	"herald/internal/model"
)

// TestExactMatchesChains pins Exact to the hand mapping the tests and
// repro used before it existed: model.Paper (model.PaperFailover with
// both Fig. 3 branches off for fail-over), then Mission. At HEP > 0
// the two build the same chain, so the results are bit-identical. At
// HEP 0 Exact leaves muHE at 0 (no undo is ever drawn), which changes
// only the uniformization constant, so they agree to rounding.
func TestExactMatchesChains(t *testing.T) {
	const lambda, mission = 1e-5, 87600
	for _, pol := range []Policy{Conventional, AutoFailover, DualParity} {
		for _, disks := range []int{4, 6} {
			for _, resync := range []bool{true, false} {
				for _, hep := range []float64{0, 0.001, 0.01} {
					p := PaperDefaults(disks, lambda, hep)
					p.Policy, p.ResyncAfterUndo = pol, resync
					got, ok, err := Exact(p, mission)
					if err != nil || !ok {
						t.Fatalf("%v/%d/%v/%v: ok %v, err %v", pol, disks, resync, hep, ok, err)
					}
					mp := model.Paper(disks, lambda, hep)
					mp.ResyncAfterUndo = resync
					var res *model.Result
					switch pol {
					case AutoFailover:
						fp := model.PaperFailover(disks, lambda, hep)
						fp.ResyncAfterUndo = resync
						fp.InstallAsSpare, fp.DownAltService = false, false
						res, err = model.Failover(fp)
					case DualParity:
						res, err = model.DualParity(mp)
					default:
						res, err = model.Conventional(mp)
					}
					if err != nil {
						t.Fatal(err)
					}
					want, err := res.Mission(mission)
					if err != nil {
						t.Fatal(err)
					}
					if hep > 0 {
						if got != want {
							t.Errorf("%v/%d/%v/%v: Exact %+v, hand mapping %+v", pol, disks, resync, hep, got, want)
						}
						continue
					}
					for _, f := range [][2]float64{
						{got.ExpectedDowntimeHours, want.ExpectedDowntimeHours},
						{got.IntervalAvailability, want.IntervalAvailability},
						{got.PointAvailability, want.PointAvailability},
					} {
						if rel := math.Abs(f[0]-f[1]) / f[1]; !(rel <= 1e-10) {
							t.Errorf("%v/%d/%v/0: Exact %v, hand mapping %v (rel %.3g)", pol, disks, resync, f[0], f[1], rel)
						}
					}
				}
			}
		}
	}

	weibull := PaperDefaults(4, lambda, 0.01)
	weibull.TTF = dist.WeibullFromMeanRate(lambda, 1.2)
	if got, ok, err := Exact(weibull, mission); ok || err != nil || got != (model.MissionResult{}) {
		t.Errorf("Weibull TTF: Exact = %+v, %v, %v; want the zero result, false, nil", got, ok, err)
	}
	if _, ok, err := Exact(PaperDefaults(1, lambda, 0.01), mission); ok || err == nil {
		t.Errorf("1-disk array: ok %v, err %v; want Validate's error", ok, err)
	}
}
