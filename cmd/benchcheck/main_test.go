package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBenchmarksBareReport(t *testing.T) {
	path := writeFile(t, "bench.json", `{
		"go": "go1.24", "cpu": "TestCPU",
		"benchmarks": [
			{"name": "BenchmarkMCIterationConventional", "ns_per_op": 140000, "allocs_per_op": 8},
			{"name": "BenchmarkBroken", "ns_per_op": 0}
		]
	}`)
	m, err := loadBenchmarks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 {
		t.Errorf("kept %d benchmarks, want 1 (zero ns/op dropped)", len(m))
	}
	if m["BenchmarkMCIterationConventional"].NsPerOp != 140000 {
		t.Errorf("ns/op = %v", m["BenchmarkMCIterationConventional"].NsPerOp)
	}
}

// TestMediansPerSide pins the same-runner gate: each side's benchmark
// is its median over that side's reports, so one noisy run on either
// side neither trips nor hides a regression, and a benchmark gates at
// the threshold on medians alone.
func TestMediansPerSide(t *testing.T) {
	report := func(name string, mc, exp float64) string {
		return writeFile(t, name, fmt.Sprintf(`{"benchmarks": [
			{"name": "BenchmarkMCIterationConventional", "ns_per_op": %v},
			{"name": "BenchmarkExpFloat64", "ns_per_op": %v}
		]}`, mc, exp))
	}
	base, err := medians([]string{report("b1.json", 100, 10), report("b2.json", 400, 10), report("b3.json", 110, 10)})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := medians([]string{report("c1.json", 105, 13), report("c2.json", 104, 30), report("c3.json", 20, 12)})
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkMCIterationConventional"].NsPerOp != 110 || cur["BenchmarkExpFloat64"].NsPerOp != 13 {
		t.Fatalf("medians %v and %v, want 110 and 13", base["BenchmarkMCIterationConventional"].NsPerOp, cur["BenchmarkExpFloat64"].NsPerOp)
	}
	ds, _, _ := compare(base, cur, nil, 0.20)
	if len(ds) != 2 || ds[0].Name != "BenchmarkExpFloat64" || !ds[0].Regression || ds[1].Regression {
		t.Errorf("deltas %+v, want ExpFloat64 (10 -> 13 ns) flagged and MCIteration (110 -> 104 ns) not", ds)
	}
	even, err := medians([]string{report("e1.json", 100, 10), report("e2.json", 120, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := even["BenchmarkMCIterationConventional"].NsPerOp; got != 110 {
		t.Errorf("median of two reports = %v, want their mean 110", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := map[string]benchmark{
		"BenchmarkMCIterationConventional": {Name: "BenchmarkMCIterationConventional", NsPerOp: 100},
		"BenchmarkSampleExp":               {Name: "BenchmarkSampleExp", NsPerOp: 50},
		"BenchmarkIgnored":                 {Name: "BenchmarkIgnored", NsPerOp: 10},
		"BenchmarkOnlyInBase":              {Name: "BenchmarkOnlyInBase", NsPerOp: 10},
	}
	cur := map[string]benchmark{
		"BenchmarkMCIterationConventional": {Name: "BenchmarkMCIterationConventional", NsPerOp: 125}, // +25%: regression
		"BenchmarkSampleExp":               {Name: "BenchmarkSampleExp", NsPerOp: 55},                // +10%: fine
		"BenchmarkIgnored":                 {Name: "BenchmarkIgnored", NsPerOp: 1000},                // filtered out
	}
	re := regexp.MustCompile("MCIteration|Sample|OnlyInBase")
	ds, missing, added := compare(base, cur, re, 0.20)
	if len(ds) != 2 {
		t.Fatalf("compared %d benchmarks, want 2", len(ds))
	}
	if len(missing) != 1 || missing[0] != "BenchmarkOnlyInBase" {
		t.Errorf("missing = %v, want the dropped gated benchmark surfaced", missing)
	}
	if len(added) != 0 {
		t.Errorf("added = %v, want none", added)
	}
	// Sorted worst-first.
	if ds[0].Name != "BenchmarkMCIterationConventional" || !ds[0].Regression {
		t.Errorf("worst delta = %+v, want flagged MCIteration", ds[0])
	}
	if ds[1].Name != "BenchmarkSampleExp" || ds[1].Regression {
		t.Errorf("second delta = %+v, want unflagged Sample", ds[1])
	}
}

func TestCompareImprovementNotFlagged(t *testing.T) {
	base := map[string]benchmark{"BenchmarkMCIterationConventional": {NsPerOp: 100}}
	cur := map[string]benchmark{"BenchmarkMCIterationConventional": {NsPerOp: 40}}
	ds, _, _ := compare(base, cur, nil, 0.20)
	if len(ds) != 1 || ds[0].Regression {
		t.Fatalf("improvement flagged as regression: %+v", ds)
	}
}

// TestCompareToleratesNewBenchmarks pins the forward-compatibility
// contract: kernel benchmarks a change adds are absent from the base
// side's reports and must neither gate nor error — they are surfaced
// in added.
func TestCompareToleratesNewBenchmarks(t *testing.T) {
	base := map[string]benchmark{
		"BenchmarkMCIterationConventional": {NsPerOp: 145000},
	}
	cur := map[string]benchmark{
		"BenchmarkMCIterationConventional":        {NsPerOp: 60000},  // the specialized kernel
		"BenchmarkMCIterationConventionalGeneric": {NsPerOp: 145000}, // new in this report
		"BenchmarkMCIterationDualParity":          {NsPerOp: 80000},  // new in this report
		"BenchmarkUnrelated":                      {NsPerOp: 1},      // not gated
	}
	re := regexp.MustCompile("MCIteration")
	ds, missing, added := compare(base, cur, re, 0.20)
	if len(missing) != 0 {
		t.Errorf("missing = %v, want none", missing)
	}
	want := []string{"BenchmarkMCIterationConventionalGeneric", "BenchmarkMCIterationDualParity"}
	if len(added) != len(want) || added[0] != want[0] || added[1] != want[1] {
		t.Errorf("added = %v, want %v", added, want)
	}
	for _, d := range ds {
		if d.Regression {
			t.Errorf("unexpected regression %+v", d)
		}
	}
}
