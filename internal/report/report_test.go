package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "lambda", "nines")
	tb.AddRow("1e-6", "8.40")
	tb.AddRow("1e-5", "5.55")
	tb.AddNote("parameters per paper §V-B")
	out := tb.String()
	for _, want := range []string{"Fig X", "lambda", "nines", "8.40", "5.55", "note: parameters"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "a", "bbbb")
	tb.AddRow("xxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header line and data line must place column 2 at the same offset.
	var header, data string
	for i, l := range lines {
		if strings.HasPrefix(l, "a") {
			header = l
			data = lines[i+2] // separator between
			break
		}
	}
	if header == "" {
		t.Fatalf("no header found:\n%s", out)
	}
	if strings.Index(data, "y") != strings.Index(header, "bbbb") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tb := NewTable("T", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestCSV(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.AddRow(`quo"te`, "1,5")
	tb.AddRow("plain", "2")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "name,value\n\"quo\"\"te\",\"1,5\"\nplain,2\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.5) != "1.5" {
		t.Errorf("F = %q", F(1.5))
	}
	if F3(2.0/3) != "0.667" {
		t.Errorf("F3 = %q", F3(2.0/3))
	}
	if E(0.000123) != "1.23e-04" {
		t.Errorf("E = %q", E(0.000123))
	}
	if B(true) != "yes" || B(false) != "no" {
		t.Error("B wrong")
	}
	inf := math.Inf(1)
	if F(inf) != "inf" || F3(inf) != "inf" || E(inf) != "inf" {
		t.Error("infinity formatting wrong")
	}
}

// TestMCNines pins the Monte-Carlo nines cell: the estimate's nines,
// a ">=" bound from the half-width for a run that saw no downtime, and
// no number when the half-width bounds nothing.
func TestMCNines(t *testing.T) {
	for _, c := range []struct {
		a, hw float64
		want  string
	}{
		{0.999, 1e-4, "3.000"},
		{1, 1 - math.Pow(0.01, 1.0/2000), ">= 2.638"},
		{1, 1, "-"},
		{1, math.Inf(1), "-"},
		{1, math.NaN(), "-"},
		{1, 0, "-"},
	} {
		if got := MCNines(c.a, c.hw); got != c.want {
			t.Errorf("MCNines(%v, %v) = %q, want %q", c.a, c.hw, got, c.want)
		}
	}
}

func TestEmptyTitleSkipsHeader(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1")
	out := tb.String()
	if strings.HasPrefix(out, "\n") || strings.Contains(out, "=") {
		t.Fatalf("unexpected title decoration:\n%q", out)
	}
}
