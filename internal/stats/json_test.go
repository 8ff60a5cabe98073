package stats

import (
	"encoding/json"
	"testing"
)

// TestHistogramJSONRoundTrip checks the histogram keeps its counts,
// edges and (unexported) running total across serialization.
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 2.5, 9.99, 10, 55} {
		h.Add(x)
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	g := new(Histogram)
	if err := json.Unmarshal(raw, g); err != nil {
		t.Fatal(err)
	}
	if g.Lo != h.Lo || g.Hi != h.Hi || g.Underflow != h.Underflow || g.Overflow != h.Overflow {
		t.Fatalf("edges/outliers diverged: %+v vs %+v", g, h)
	}
	if g.Total() != h.Total() {
		t.Fatalf("total %d, want %d", g.Total(), h.Total())
	}
	for i := range h.Counts {
		if g.Counts[i] != h.Counts[i] {
			t.Fatalf("bin %d: %d, want %d", i, g.Counts[i], h.Counts[i])
		}
	}
	// Restored histograms must merge with originals (same binning).
	g.Merge(h)
	if g.Total() != 2*h.Total() {
		t.Fatalf("merge after round-trip: total %d, want %d", g.Total(), 2*h.Total())
	}
	// Invalid payloads are rejected.
	if err := json.Unmarshal([]byte(`{"lo":1,"hi":0,"counts":[1]}`), new(Histogram)); err == nil {
		t.Error("inverted-edge histogram accepted")
	}
}
