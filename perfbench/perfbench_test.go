package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

func TestInputsReplayableFromSeed(t *testing.T) {
	for _, w := range workloadNames {
		enc := func(seed uint64) []byte {
			t.Helper()
			in, err := makeInputs(w, seed, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b, c := enc(7), enc(7), enc(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave identical inputs", w)
		}
	}
}

// TestRecordReplaysInputs writes a run record and checks it carries the
// exact inputs and the schedule each operation followed.
func TestRecordReplaysInputs(t *testing.T) {
	in, err := makeInputs("serve-mixed", 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	win := &window{start: time.Now()}
	for i, a := range in.Windows[0] {
		due := win.start.Add(a.At)
		win.ops = append(win.ops, opResult{Run: &in.Windows[0][i].Run, Start: due, End: due.Add(time.Millisecond)})
	}
	path := filepath.Join(t.TempDir(), "record.json")
	if err := writeRecord(path, in, []*window{win}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Inputs json.RawMessage `json:"inputs"`
		Ops    []struct {
			StartMS float64 `json:"start_ms"`
			Label   string  `json:"label"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rec.Inputs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), mustJSON(t, in)) {
		t.Error("recorded inputs differ from the generated ones")
	}
	if len(rec.Ops) != len(in.Windows[0]) {
		t.Fatalf("recorded %d operations, want %d", len(rec.Ops), len(in.Windows[0]))
	}
	for i, a := range in.Windows[0] {
		if got := rec.Ops[i].StartMS; math.Abs(got-ms(a.At)) > 1e-6 || rec.Ops[i].Label != a.Run.Label {
			t.Errorf("op %d recorded at %v ms as %q, scheduled at %v ms as %q", i, got, rec.Ops[i].Label, ms(a.At), a.Run.Label)
		}
	}
}

func TestServeScheduleShape(t *testing.T) {
	in, err := makeInputs("serve-mixed", 3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(in.Windows))
	}
	classes := map[string]int{}
	for _, w := range in.Windows {
		for i, a := range w {
			if a.At < 0 || a.At >= 10*time.Second || (i > 0 && a.At < w[i-1].At) {
				t.Fatalf("arrival %d at %v: outside the window or out of order", i, a.At)
			}
			classes[a.Run.Class]++
		}
	}
	for _, c := range []string{"hit", "miss", "dup", "stream"} {
		if classes[c] == 0 {
			t.Errorf("no %s requests in %v", c, classes)
		}
	}
	if bytes.Equal(mustJSON(t, in.Windows[0]), mustJSON(t, in.Windows[1])) {
		t.Error("both windows have the same schedule; the second would replay cache hits")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{5, 0.5, 2},
		{20, 0.5, 10},
		{99, 0.5, 49},
		{100, 0.9, 10},
		{199, 0.9, 19},
		{200, 0.95, 10},
		{999, 0.95, 49},
		{1000, 0.99, 10},
		{10000, 0.999, 10},
	} {
		q, beyond := tailQuantile(c.n)
		if q != c.q || beyond != c.beyond {
			t.Errorf("tailQuantile(%d) = %v, %d; want %v, %d", c.n, q, beyond, c.q, c.beyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, reversed
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	children := []Span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: counted once
		{Start: 90, End: 120}, // runs past the parent: clipped
		{Start: 50, End: 50},  // empty
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %v, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100", got)
	}
}

func TestAttributeSumsToDuration(t *testing.T) {
	sec := time.Second
	pieces := []piece{
		{0, 10 * sec, 1, []share{{"http", 1}}},
		{2 * sec, 8 * sec, 2, []share{{"serve", 1}}},
		// Two jobs in service at once share the instant evenly.
		{3 * sec, 5 * sec, 4, []share{{"sim.kernel", 0.75}, {"shard.codec", 0.25}}},
		{4 * sec, 6 * sec, 4, []share{{"sim.kernel", 1}}},
	}
	got := attribute(-sec, 11*sec, pieces, "unexplained")
	want := map[string]float64{
		"unexplained": 2,
		"http":        4,
		"serve":       3,
		// [3,4): 0.75+0.25; [4,5): 0.5*(0.75+0.25)+0.5; [5,6): 1.
		"sim.kernel":  0.75 + 0.375 + 0.5 + 1,
		"shard.codec": 0.25 + 0.125,
	}
	total := 0.0
	for row, v := range got {
		total += v
		if math.Abs(v-want[row]) > 1e-9 {
			t.Errorf("%s = %v, want %v", row, v, want[row])
		}
	}
	if math.Abs(total-12) > 1e-9 {
		t.Errorf("rows sum to %v, want the 12 s operation", total)
	}
}

// TestTracingDoesNotChangeDispatch runs the same pipeline bare and
// behind recording timing wrappers: the summaries must be byte-identical
// and the dispatch statistics equal.
func TestTracingDoesNotChangeDispatch(t *testing.T) {
	specs := []shard.RunSpec{
		{Params: sim.PaperDefaults(4, 1e-6, 0.001), Options: sim.Options{
			Iterations: 256, MaxIters: 1 << 18, MissionTime: mission, Seed: 5, TargetHalfWidth: 2e-8}},
		{Params: sim.PaperDefaults(4, 1e-6, 0), Options: sim.Options{
			Iterations: 256, MaxIters: 1 << 18, MissionTime: mission, Seed: 6, TargetHalfWidth: 1e-9, Bias: sim.BiasAuto}},
		{Params: sim.PaperDefaults(4, 1e-5, 0.01), Options: sim.Options{
			Iterations: 20_000, MissionTime: mission, Seed: 7}, Shards: 3},
	}
	run := func(rec *recorder) []shard.RunResult {
		t.Helper()
		// One single-slot worker makes dispatch, waves and cancellation
		// deterministic, so the statistics must match exactly.
		ws := wrap([]shard.Worker{shard.NewInProcessWorker("w", 1)}, rec)
		res, err := shard.RunPipeline(specs, ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := newRecorder()
	rec.enable()
	bare, traced := run(nil), run(rec)
	for i := range specs {
		a, b := mustJSON(t, bare[i].Summary), mustJSON(t, traced[i].Summary)
		if !bytes.Equal(a, b) {
			t.Errorf("run %d: traced summary differs:\n%s\n%s", i, a, b)
		}
		if bare[i].Stats != traced[i].Stats {
			t.Errorf("run %d: stats differ: %+v vs %+v", i, bare[i].Stats, traced[i].Stats)
		}
	}
	if _, jobs := rec.snapshot(); len(jobs) == 0 {
		t.Error("the wrapper recorded no jobs")
	}
	if bare[0].Stats.Waves < 2 {
		t.Errorf("adaptive run used %d waves; the test wants several", bare[0].Stats.Waves)
	}
}

// TestTimedWorkerForwardsFacets checks the wrapper reports what the
// wrapped worker would: a worker without the optional facets must look
// like one slot with no pipelining.
func TestTimedWorkerForwardsFacets(t *testing.T) {
	w := &timedWorker{Worker: shard.NewInProcessWorker("w", 3)}
	if w.Capacity() != 3 || w.PipelineDepth() != 1 {
		t.Errorf("in-process worker: capacity %d depth %d, want 3 and 1", w.Capacity(), w.PipelineDepth())
	}
	bare := &timedWorker{Worker: plainWorker{}}
	if bare.Capacity() != 0 || bare.PipelineDepth() != 1 {
		t.Errorf("plain worker: capacity %d depth %d, want 0 and 1", bare.Capacity(), bare.PipelineDepth())
	}
	bare.CancelJob(1) // no facet: must not panic
}

type plainWorker struct{}

func (plainWorker) Name() string                          { return "plain" }
func (plainWorker) Run(*shard.Job) ([]sim.Partial, error) { return nil, nil }
func (plainWorker) Close() error                          { return nil }
