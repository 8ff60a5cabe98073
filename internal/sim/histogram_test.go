package sim

import (
	"testing"
)

func TestDowntimeHistogramCollected(t *testing.T) {
	// Rare incidents: most iterations should land in the first bin.
	p := PaperDefaults(4, 1e-4, 0.002)
	s, err := Run(p, Options{
		Iterations:    2000,
		MissionTime:   1e5,
		Seed:          9,
		Workers:       4,
		HistogramBins: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.DowntimeHistogram
	if h == nil {
		t.Fatal("histogram not collected")
	}
	if h.Total() != 2000 {
		t.Fatalf("histogram total = %d, want one record per iteration", h.Total())
	}
	if h.Hi != 1e3 { // default: 1% of mission
		t.Fatalf("default upper edge = %v", h.Hi)
	}
	// Most iterations see little downtime; the first bin must dominate.
	if h.Counts[0] < h.Total()/2 {
		t.Fatalf("first bin %d of %d; expected concentration near zero", h.Counts[0], h.Total())
	}
	// Quantiles must be ordered.
	if q50, q95 := h.Quantile(0.5), h.Quantile(0.95); q95 < q50 {
		t.Fatalf("q95 %v < q50 %v", q95, q50)
	}
}

func TestDowntimeHistogramCustomRange(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.05)
	s, err := Run(p, Options{
		Iterations:        300,
		MissionTime:       1e5,
		Seed:              9,
		Workers:           2,
		HistogramBins:     10,
		HistogramMaxHours: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.DowntimeHistogram.Hi != 50 {
		t.Fatalf("upper edge = %v", s.DowntimeHistogram.Hi)
	}
}

func TestHistogramDisabledByDefault(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	s, err := Run(p, Options{Iterations: 50, MissionTime: 1e4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.DowntimeHistogram != nil {
		t.Fatal("histogram collected without being requested")
	}
}

// TestSummarizeRejectsMissingHistogram pins that a partial without the
// histogram its options ask for is refused — by Summarize and by the
// CheckPartials test of outside partials — rather than silently
// dropped from the Summary's histogram.
func TestSummarizeRejectsMissingHistogram(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.002)
	o := Options{Iterations: 4000, MissionTime: 1e5, Seed: 9, Workers: 2, HistogramBins: 20}
	parts, err := RunRange(p, o, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	parts[3].Hist = nil
	if s, err := Summarize(o, parts); err == nil {
		t.Errorf("partial without histogram accepted; histogram holds %d of %d iterations",
			s.DowntimeHistogram.Total(), s.Iterations)
	}
	if err := CheckPartials(p, o, 0, o.Iterations, parts); err == nil {
		t.Error("CheckPartials accepted a partial without histogram")
	}
}
