// Command perfbench is herald's end-to-end benchmark. It runs one named
// workload against the program's public entry points — sweep.MonteCarlo
// over stdio worker processes, an availserve Server over loopback HTTP,
// or precision-targeted runs through a shard.Pool of TCP workers —
// checks every result against an in-process reference, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// A traced run (-trace 1) measures an untraced window and then a traced
// one, replays the traced window's work layer by layer, and reports
// per-layer metrics and a ledger whose rows add up to the end-to-end
// time.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload precision-tcp --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"herald/internal/shard"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median.
const setupReps = 11

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	shard.MaybeWorker()
	if tok := os.Getenv(tcpWorkerEnv); tok != "" {
		if err := serveTCPWorker(tok); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench tcp worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	var (
		name    = flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
		seed    = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 10, "length of one measured window in seconds")
		trace   = flag.Int("trace", 0, "1 adds a traced window and reports per-layer metrics instead of end-to-end ones")
		record  = flag.String("record", "", "write the generated inputs and per-operation results to this JSON file")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and prints its report to out.
func run(out io.Writer, name string, seed uint64, seconds float64, traced bool, record string) (*result, error) {
	windows := 1
	if traced {
		windows = 2
	}
	in, err := makeInputs(name, seed, seconds, windows)
	if err != nil {
		return nil, err
	}
	blob, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	fmt.Fprintf(out, "workload %s seed %d: inputs sha256 %s\n", name, seed, hex.EncodeToString(sum[:8]))

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	w, setupS, err := setUp(in, rec)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()
	steal := stealSeconds()
	var wins []*window
	for i := 0; i < windows; i++ {
		if i == 1 {
			rec.enable()
		}
		wins = append(wins, w.window(rec, i))
	}
	rss := peakRSSMB(w.pids())
	steal = stealSeconds() - steal
	w.tearDown()

	res := &result{Correct: true}
	chk := newChecker()
	var ran []*runInput
	for _, win := range wins {
		for i := range win.ops {
			ran = append(ran, win.ops[i].Run)
		}
	}
	if err := chk.solveModels(ran); err != nil {
		return nil, err
	}
	for _, win := range wins {
		for i := range win.ops {
			op := &win.ops[i]
			res.Attempted++
			if op.Err != nil {
				res.Failed++
				continue
			}
			if ok, why := chk.check(op); !ok {
				res.Failed++
				res.Correct = false
				fmt.Fprintln(out, "INCORRECT:", why)
			}
		}
	}
	e2e, extra := endToEnd(in, wins[0], setupS, rss)
	// CPU time the hypervisor took during the windows explains outliers.
	extra["steal_s"] = metric{steal, "s"}
	printMetrics(out, "end-to-end (untraced window)", e2e)
	printMetrics(out, "workload detail (untraced window)", extra)
	if record != "" {
		if err := writeRecord(record, in, wins); err != nil {
			return nil, err
		}
	}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := analyze(out, in, wins, rec)
	if err != nil {
		return nil, err
	}
	printMetrics(out, "per-layer (traced window)", layers)
	res.Metrics = layers
	return res, nil
}

// setUp builds the workload setupReps times, tearing down all but the
// last, and returns the last with every set-up time.
func setUp(in *inputs, rec *recorder) (workload, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		w := newWorkload(in)
		t := time.Now()
		err := w.setUp(rec)
		d := time.Since(t)
		if err != nil {
			w.tearDown()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		if i == setupReps-1 {
			return w, times, nil
		}
		w.tearDown()
	}
}

// writeRecord saves the inputs and what each operation returned, so a
// run can be inspected and replayed from its seed.
func writeRecord(path string, in *inputs, wins []*window) error {
	type opRec struct {
		Window    int             `json:"window"`
		Label     string          `json:"label"`
		Class     string          `json:"class"`
		StartMS   float64         `json:"start_ms"`
		LatencyMS float64         `json:"latency_ms"`
		Cached    bool            `json:"cached,omitempty"`
		Error     string          `json:"error,omitempty"`
		Summary   json.RawMessage `json:"summary,omitempty"`
	}
	var ops []opRec
	for wi, win := range wins {
		for _, op := range win.ops {
			r := opRec{Window: wi, Label: op.Run.Label, Class: op.Run.Class,
				StartMS:   ms(op.Start.Sub(win.start)),
				LatencyMS: ms(op.Latency()), Cached: op.Cached, Summary: op.Summary}
			if op.Err != nil {
				r.Error = op.Err.Error()
			}
			ops = append(ops, r)
		}
	}
	b, err := json.MarshalIndent(struct {
		Inputs *inputs `json:"inputs"`
		Ops    []opRec `json:"ops"`
	}{in, ops}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
