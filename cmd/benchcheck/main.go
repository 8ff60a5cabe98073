// Command benchcheck is CI's micro-benchmark gate. It compares two
// sides' reports (the JSON scripts/bench.sh emits), recorded in
// alternation on one machine by scripts/abbench.sh BASE_REV micro, and
// exits non-zero when a gated benchmark's median ns/op over the change
// side's reports exceeds the base side's median by more than the
// threshold. Both sides run on the same host in the same session, so
// the gate measures the change, not the machine.
//
// Usage:
//
//	benchcheck -baseline base-1.json,base-2.json,base-3.json -current change-1.json,change-2.json,change-3.json
//	benchcheck -baseline base.json -current change.json -threshold 0.3 -match 'MCIteration'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// benchmark is one benchmark line of a report.
type benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// report is the JSON shape bench.sh emits.
type report struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

// loadBenchmarks reads a bench.sh report and returns its benchmarks by
// name, dropping lines without a positive ns/op.
func loadBenchmarks(path string) (map[string]benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchmark, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		if b.Name == "" || b.NsPerOp <= 0 {
			continue
		}
		out[b.Name] = b
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks found", path)
	}
	return out, nil
}

// medians loads one side's reports and returns, for each benchmark, its
// median ns/op over the reports that carry it (the mean of the middle
// two for an even count).
func medians(paths []string) (map[string]benchmark, error) {
	runs := make(map[string][]float64)
	for _, path := range paths {
		m, err := loadBenchmarks(path)
		if err != nil {
			return nil, err
		}
		for name, b := range m {
			runs[name] = append(runs[name], b.NsPerOp)
		}
	}
	out := make(map[string]benchmark, len(runs))
	for name, ns := range runs {
		sort.Float64s(ns)
		mid := len(ns) / 2
		med := ns[mid]
		if len(ns)%2 == 0 {
			med = (ns[mid-1] + ns[mid]) / 2
		}
		out[name] = benchmark{Name: name, NsPerOp: med}
	}
	return out, nil
}

// delta is one base-vs-change comparison.
type delta struct {
	Name       string
	BaseNs     float64
	CurNs      float64
	Ratio      float64 // CurNs/BaseNs - 1; positive = slower
	Regression bool
}

// compare matches benchmarks by name (filtered by match) and flags
// regressions beyond threshold. Gated base benchmarks absent from the
// current side are returned in missing — a renamed or dropped kernel
// benchmark must be visible, not silently un-gated. Benchmarks present
// only on the current side (added by the change) are returned in added
// and never gate: the base has nothing to compare them with.
func compare(base, cur map[string]benchmark, match *regexp.Regexp, threshold float64) (out []delta, missing, added []string) {
	for name, b := range base {
		if match != nil && !match.MatchString(name) {
			continue
		}
		c, ok := cur[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		ratio := c.NsPerOp/b.NsPerOp - 1
		out = append(out, delta{
			Name:       name,
			BaseNs:     b.NsPerOp,
			CurNs:      c.NsPerOp,
			Ratio:      ratio,
			Regression: ratio > threshold,
		})
	}
	for name := range cur {
		if match != nil && !match.MatchString(name) {
			continue
		}
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	sort.Strings(missing)
	sort.Strings(added)
	return out, missing, added
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "comma-separated bench.sh reports of the base side")
		current   = flag.String("current", "", "comma-separated bench.sh reports of the change side")
		threshold = flag.Float64("threshold", 0.20, "fail when a median ns/op grows by more than this fraction")
		match     = flag.String("match", "MCIteration|SampleN|ExpFloat64|ErlangFloat64|NormFloat64|Uint32n|StudentTQuantile|SteadyState",
			"regexp selecting the kernel benchmarks to gate on")
		missingIs = flag.String("missing", "warn",
			"how to treat gated base benchmarks absent from the change side: warn or fail")
	)
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -baseline and -current are required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: bad -match:", err)
		os.Exit(2)
	}
	if *missingIs != "warn" && *missingIs != "fail" {
		fmt.Fprintln(os.Stderr, "benchcheck: -missing must be warn or fail")
		os.Exit(2)
	}
	basePaths, curPaths := strings.Split(*baseline, ","), strings.Split(*current, ",")
	base, err := medians(basePaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	cur, err := medians(curPaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	deltas, missing, added := compare(base, cur, re, *threshold)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: gated base benchmark %s is missing from the change side\n", *missingIs, name)
	}
	for _, name := range added {
		fmt.Fprintf(os.Stderr, "benchcheck: note: %s is new on the change side; the base has nothing to compare it with\n", name)
	}
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no matching benchmarks shared by the two sides")
		os.Exit(2)
	}
	fmt.Printf("medians of %d base and %d change reports, ns/op\n", len(basePaths), len(curPaths))
	failed := 0
	for _, d := range deltas {
		flag := "  "
		if d.Regression {
			flag = "!!"
			failed++
		}
		fmt.Printf("%s %-48s %12.1f -> %12.1f ns/op  %+6.1f%%\n", flag, d.Name, d.BaseNs, d.CurNs, 100*d.Ratio)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d kernel benchmark(s) regressed more than %.0f%%\n", failed, 100**threshold)
		os.Exit(1)
	}
	if len(missing) > 0 && *missingIs == "fail" {
		fmt.Fprintf(os.Stderr, "benchcheck: %d gated benchmark(s) missing from the change side\n", len(missing))
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmarks within %.0f%% of the base\n", len(deltas), 100**threshold)
}
