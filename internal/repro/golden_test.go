package repro

import (
	"strconv"
	"testing"
)

// TestGoldenAnalyticNumbers pins the analytic (Markov) cells of the
// experiment tables to the values recorded below, so that refactors
// of the solver or model cannot silently drift the reproduction.
func TestGoldenAnalyticNumbers(t *testing.T) {
	const tol = 0.005 // nines

	cell := func(rows [][]string, r, c int) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(rows[r][c], 64)
		if err != nil {
			t.Fatalf("bad cell [%d][%d] = %q", r, c, rows[r][c])
		}
		return v
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if d := got - want; d > tol || d < -tol {
			t.Errorf("%s = %v, recorded %v", name, got, want)
		}
	}

	// Fig. 6a (lambda = 1e-5): the ranking-flip panel.
	tables, err := Fig6(fast())
	if err != nil {
		t.Fatal(err)
	}
	a := tables[0].Rows
	near("fig6a RAID1 hep=0", cell(a, 0, 4), 5.854)
	near("fig6a RAID1 hep=0.001", cell(a, 0, 5), 4.801)
	near("fig6a RAID1 hep=0.01", cell(a, 0, 6), 3.837)
	near("fig6a R5(3+1) hep=0", cell(a, 1, 4), 5.553)
	near("fig6a R5(3+1) hep=0.01", cell(a, 1, 6), 4.005)
	near("fig6a R5(7+1) hep=0.01", cell(a, 2, 6), 4.056)

	// Fig. 7: the policy comparison.
	f7, err := Fig7(fast())
	if err != nil {
		t.Fatal(err)
	}
	near("fig7 conv hep=0", cell(f7.Rows, 0, 1), 8.398)
	near("fig7 fo hep=0", cell(f7.Rows, 0, 2), 8.398)
	near("fig7 conv hep=0.001", cell(f7.Rows, 1, 1), 6.850)
	near("fig7 fo hep=0.001", cell(f7.Rows, 1, 2), 8.398)
	near("fig7 conv hep=0.01", cell(f7.Rows, 2, 1), 5.861)
	near("fig7 fo hep=0.01", cell(f7.Rows, 2, 2), 8.356)

	// Headline table: the 275.7x cell at (1.25e-6, 0.01).
	u, err := Underestimation(fast())
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(u.Rows, 1, 4); got < 270 || got > 281 {
		t.Errorf("headline ratio = %v, recorded 275.7", got)
	}
}
