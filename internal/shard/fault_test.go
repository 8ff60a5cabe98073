package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herald/internal/ndjson"
	"herald/internal/sim"
)

// flakyWorker dies (returns a transport-style error) after completing
// failAfter jobs, closing died (when set) as it goes down.
type flakyWorker struct {
	inner     Worker
	failAfter int
	ran       int
	died      chan struct{}
}

func (w *flakyWorker) Name() string { return "flaky" }
func (w *flakyWorker) Run(job *Job) ([]sim.Partial, error) {
	if w.ran >= w.failAfter {
		if w.died != nil {
			close(w.died)
		}
		return nil, errors.New("connection reset by peer")
	}
	w.ran++
	return w.inner.Run(job)
}
func (w *flakyWorker) Close() error { return nil }

// gatedWorker delays its first job until gate closes, pinning the
// order of events in fault tests.
type gatedWorker struct {
	inner Worker
	gate  <-chan struct{}
}

func (w *gatedWorker) Name() string { return w.inner.Name() }
func (w *gatedWorker) Run(job *Job) ([]sim.Partial, error) {
	<-w.gate
	return w.inner.Run(job)
}
func (w *gatedWorker) Close() error { return w.inner.Close() }

// TestKilledWorkerReassigned kills a worker mid-run and checks the
// survivors finish the run with a byte-identical Summary.
func TestKilledWorkerReassigned(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	died := make(chan struct{})
	got, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 8,
		Workers: []Worker{
			&flakyWorker{inner: NewInProcessWorker("w0", 1), failAfter: 0, died: died},
			&gatedWorker{inner: NewInProcessWorker("w1", 1), gate: died},
		},
		Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1", st.WorkerFailures)
	}
	if !strings.Contains(log.String(), "reassigned") {
		t.Errorf("log does not mention reassignment:\n%s", log.String())
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged after worker death")
	}
}

// TestAllWorkersDead checks the coordinator reports failure (instead
// of hanging or fabricating results) when every worker dies.
func TestAllWorkersDead(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	_, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 8,
		Workers: []Worker{
			&flakyWorker{inner: NewInProcessWorker("w0", 1), failAfter: 1},
			&flakyWorker{inner: NewInProcessWorker("w1", 1), failAfter: 2},
		},
	})
	if err == nil {
		t.Fatal("expected error when all workers die")
	}
	if st.Computed != 3 {
		t.Errorf("computed %d shards before dying, want 3", st.Computed)
	}
}

// TestKilledProcessWorkerReassigned kills a real worker process with
// SIGKILL mid-run; the surviving process must absorb its shards and
// the Summary must stay byte-identical.
func TestKilledProcessWorkerReassigned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := SpawnLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	// Kill the first worker before the run starts: its first Run fails
	// like a mid-run death and its shards are reassigned.
	if err := workers[0].(*processWorker).Kill(); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	got, st, err := runStats(runCfg{Params: p, Options: o, Shards: 6, Workers: workers, Log: &log})
	if err != nil {
		t.Fatalf("%v (log: %s)", err, log.String())
	}
	if st.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1 (log: %s)", st.WorkerFailures, log.String())
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged after process kill")
	}
}

// duplicatingTransport replays every result message it delivers: the
// duplicate arrives as a stray while the worker waits for its next
// job's answer, exercising the exactly-once merge.
type duplicatingTransport struct {
	transport
	replay []*Message
}

func (d *duplicatingTransport) Recv() (*Message, error) {
	if len(d.replay) > 0 {
		m := d.replay[0]
		d.replay = d.replay[1:]
		return m, nil
	}
	m, err := d.transport.Recv()
	if err != nil {
		return nil, err
	}
	if m.Type == MsgResult {
		d.replay = append(d.replay, m)
	}
	return m, nil
}

// TestDuplicateResultIgnored feeds every shard result twice; the
// duplicates must be dropped, counted, and the Summary byte-identical.
func TestDuplicateResultIgnored(t *testing.T) {
	p := testParams(sim.DualParity)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}

	server, client := pipeTransports()
	go func() { _ = serveConn(server) }()
	w := newRemoteWorker("dup", &duplicatingTransport{transport: client}, 1)
	defer w.Close()

	var log bytes.Buffer
	got, st, err := runStats(runCfg{Params: p, Options: o, Shards: 5, Workers: []Worker{w}, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicateResults == 0 {
		t.Errorf("expected dropped duplicates, got none (log: %s)", log.String())
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged under duplicate deliveries")
	}
}

// corruptWorker applies poison to the first cell of its first result,
// then behaves.
type corruptWorker struct {
	inner    Worker
	poison   func(*sim.Partial)
	poisoned bool
}

func (w *corruptWorker) Name() string { return "corrupt" }
func (w *corruptWorker) Run(job *Job) ([]sim.Partial, error) {
	parts, err := w.inner.Run(job)
	if err == nil && !w.poisoned {
		w.poisoned = true
		parts = append([]sim.Partial(nil), parts...)
		w.poison(&parts[0])
	}
	return parts, err
}
func (w *corruptWorker) Close() error { return nil }

// TestMalformedResultRecomputed checks a result that fails validation
// is dropped and its shard recomputed rather than merged or fatal, for
// every field the merge depends on.
func TestMalformedResultRecomputed(t *testing.T) {
	biased := testOptions()
	biased.Bias = sim.BiasAuto
	biasedAdaptive := adaptiveOptions()
	biasedAdaptive.Bias = sim.BiasAuto
	histogram := testOptions()
	histogram.HistogramBins = 8
	for _, tc := range []struct {
		name   string
		o      sim.Options
		poison func(*sim.Partial)
	}{
		{"wrong seed", testOptions(), func(pt *sim.Partial) { pt.Seed++ }},
		{"biased fixed-N without weights", biased, func(pt *sim.Partial) { pt.WAvail = nil }},
		{"biased adaptive without weights", biasedAdaptive, func(pt *sim.Partial) { pt.WAvail = nil }},
		{"missing histogram", histogram, func(pt *sim.Partial) { pt.Hist = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testParams(sim.Conventional)
			base, err := sim.Run(p, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			got, st, err := runStats(runCfg{
				Params: p, Options: tc.o, Shards: 4,
				Workers: []Worker{&corruptWorker{inner: NewInProcessWorker("w", 1), poison: tc.poison}},
				Log:     &log,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(log.String(), "malformed") {
				t.Errorf("log does not mention the malformed result:\n%s", log.String())
			}
			if st.WorkerFailures != 1 {
				t.Errorf("failures = %d, want 1", st.WorkerFailures)
			}
			if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
				t.Error("summary diverged after malformed result")
			}
		})
	}
}

// TestCheckpointDropsUnweightedRecord strips the importance weights
// from one checkpointed range of a biased run: resume must drop that
// record and recompute its range rather than fail the merge. A record
// overlapping an earlier one is dropped too, and nothing recomputes.
func TestCheckpointDropsUnweightedRecord(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	o.Bias = sim.BiasAuto
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	var frame struct{ Rec checkpointRecord }
	if err := json.Unmarshal(lines[1], &frame); err != nil {
		t.Fatal(err)
	}
	frame.Rec.Partials[0].WAvail = nil
	rec, err := json.Marshal(frame.Rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = ndjson.Frame(rec)
	if err := os.WriteFile(cpPath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	got, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "dropping invalid record") {
		t.Errorf("log does not mention the dropped record:\n%s", log.String())
	}
	if st.FromCheckpoint != 9 || st.Computed != 1 {
		t.Errorf("restored %d / computed %d, want 9 / 1", st.FromCheckpoint, st.Computed)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged after dropping the unweighted record")
	}

	// The resume left a complete checkpoint. Append a valid record for
	// the run's first cell, which the first record already covers.
	jo := o
	jo.Iterations = o.IterationCap()
	first, err := sim.RunRange(p, jo, 0, sim.CellSize(jo.Iterations))
	if err != nil {
		t.Fatal(err)
	}
	rec, err = json.Marshal(checkpointRecord{Type: "shard", Partials: first})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(cpPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ndjson.Frame(rec)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	log.Reset()
	got, st, err = runStats(runCfg{
		Params: p, Options: o, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "overlapping") {
		t.Errorf("log does not mention the overlapping record:\n%s", log.String())
	}
	if st.FromCheckpoint != 10 || st.Computed != 0 {
		t.Errorf("restored %d / computed %d, want 10 / 0", st.FromCheckpoint, st.Computed)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged after dropping the overlapping record")
	}
}

// TestCheckpointResume interrupts a run after some ranges complete and
// resumes from the checkpoint: the resumed run must only compute the
// remainder and end byte-identical.
func TestCheckpointResume(t *testing.T) {
	p := testParams(sim.AutoFailover)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "run.ckpt")

	// First attempt: the only worker dies after 3 ranges, so the run
	// fails — but the 3 ranges, [0,704), are checkpointed.
	_, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 8, Checkpoint: cpPath,
		Workers: []Worker{&flakyWorker{inner: NewInProcessWorker("w", 1), failAfter: 3}},
	})
	if err == nil {
		t.Fatal("expected first attempt to fail")
	}
	if st.Computed != 3 {
		t.Fatalf("first attempt computed %d shards, want 3", st.Computed)
	}

	// Resume with a healthy worker: only [704,2000) recomputes, in the
	// 13 guided claims of 8 shards (3, 3, 2, 2, 2, 2, then 1 cell each).
	got, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 8, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCheckpoint != 3 || st.Computed != 13 {
		t.Errorf("resume restored %d / computed %d, want 3 / 13", st.FromCheckpoint, st.Computed)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("resumed summary diverged from single-process baseline")
	}
}

// TestCheckpointShortWrite tears the checkpoint mid-record (a crash
// during an append) and checks resume drops the torn tail, recomputes
// the torn range, and still matches the baseline.
func TestCheckpointShortWrite(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "run.ckpt")

	// Complete a full run to get a valid checkpoint of its 13 claimed
	// ranges (6 shards: 6, 5, 4, 3, 3, 2, 2, 2 cells, then 1 cell each).
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 6, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	}); err != nil {
		t.Fatal(err)
	}

	// Tear the file mid-way through the final record.
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 14 { // header + 13 ranges
		t.Fatalf("checkpoint has %d lines, want 14", len(lines))
	}
	last := lines[len(lines)-1]
	torn := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	torn = append(torn, last[:len(last)/2]...) // short write: half a record, no newline
	if err := os.WriteFile(cpPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	got, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 6, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "torn") {
		t.Errorf("log does not mention the torn record:\n%s", log.String())
	}
	if st.FromCheckpoint != 12 || st.Computed != 1 {
		t.Errorf("restored %d / computed %d, want 12 / 1", st.FromCheckpoint, st.Computed)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged after torn checkpoint")
	}
}

// TestMalformedResultsBounded checks a lone worker with a
// deterministic defect cannot spin the coordinator forever: after the
// per-shard cap the run fails with a diagnostic.
func TestMalformedResultsBounded(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	_, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 2,
		Workers: []Worker{&alwaysCorruptWorker{inner: NewInProcessWorker("w", 1)}},
	})
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("expected malformed-results abort, got %v", err)
	}
}

// alwaysCorruptWorker poisons every result it returns.
type alwaysCorruptWorker struct{ inner Worker }

func (w *alwaysCorruptWorker) Name() string { return "always-corrupt" }
func (w *alwaysCorruptWorker) Run(job *Job) ([]sim.Partial, error) {
	parts, err := w.inner.Run(job)
	if err == nil {
		parts = append([]sim.Partial(nil), parts...)
		parts[0].MissionTime++
	}
	return parts, err
}
func (w *alwaysCorruptWorker) Close() error { return nil }

// TestCheckpointResumeDifferentWorkers pins that the fingerprint
// ignores the schedule-only Workers option: a run checkpointed under
// one worker count resumes under another.
func TestCheckpointResumeDifferentWorkers(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	cpPath := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.Workers = 7
	_, st, err := runStats(runCfg{
		Params: p, Options: o2, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	})
	if err != nil {
		t.Fatalf("resume with different Workers refused: %v", err)
	}
	if st.FromCheckpoint != 10 {
		t.Errorf("restored %d ranges, want 10", st.FromCheckpoint)
	}
}

// TestSummarizeHistogramMismatch checks mismatched histogram binning
// across partials surfaces as an error, not a panic.
func TestSummarizeHistogramMismatch(t *testing.T) {
	p := testParams(sim.Conventional)
	o := sim.Options{Iterations: 200, MissionTime: 1e5, Seed: 4, Workers: 1, HistogramBins: 8}
	a, err := sim.RunRange(p, o, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.HistogramMaxHours = 777
	b, err := sim.RunRange(p, o2, 64, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Summarize(o, append(a, b...)); err == nil {
		t.Error("mismatched histogram binning accepted")
	}
}

// TestCheckpointFingerprintMismatch ensures a checkpoint from a
// different configuration is refused, not silently clobbered.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	cpPath := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.Seed++
	_, _, err := runStats(runCfg{
		Params: p, Options: o2, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("expected fingerprint mismatch error, got %v", err)
	}
}

// TestCheckpointBindsRunAndPartition pins the checkpoint identity: the
// header binds the run's RunFingerprint alone and each record is keyed
// by the range its partials cover, so a checkpoint resumes under any
// shard count. A file in the older format, whose header carries a shard
// count and whose records carry shard ids and predate framing, keeps
// its header binding but restores no record: the loader logs its first
// record as torn, once, and the run recomputes to the same Summary.
func TestCheckpointBindsRunAndPartition(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fingerprintOf(p, o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "run.ckpt")
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 4, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.Unmarshal(bytes.SplitN(raw, []byte("\n"), 2)[0], &h); err != nil {
		t.Fatal(err)
	}
	if _, ok := h["shards"]; h["fingerprint"] != fp || ok {
		t.Errorf("header %v, want fingerprint %s and no shard count", h, fp)
	}

	// The older format: the four shards of the former even split, with
	// ids and a shard count.
	legacy := filepath.Join(dir, "legacy.ckpt")
	lines := []any{map[string]any{"type": "header", "fingerprint": fp, "iterations": o.Iterations, "seed": o.Seed, "shards": 4}}
	for id, rg := range []sim.Range{{Start: 0, End: 512}, {Start: 512, End: 1024}, {Start: 1024, End: 1536}, {Start: 1536, End: 2000}} {
		parts, err := sim.RunRange(p, o, rg.Start, rg.End)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, map[string]any{"type": "shard", "id": id, "partials": parts})
	}
	var buf bytes.Buffer
	for _, l := range lines {
		if err := json.NewEncoder(&buf).Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(legacy, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path     string
		restored int
		warnings int
	}{{cpPath, 10, 0}, {legacy, 0, 1}} {
		var log bytes.Buffer
		got, st, err := runStats(runCfg{
			Params: p, Options: o, Shards: 2, Checkpoint: tc.path,
			Workers: []Worker{NewInProcessWorker("w", 1)},
			Log:     &log,
		})
		if err != nil {
			t.Fatalf("%s: resume under another shard count refused: %v", filepath.Base(tc.path), err)
		}
		if st.FromCheckpoint != tc.restored || (st.Computed == 0) != (tc.restored > 0) {
			t.Errorf("%s: restored %d / computed %d, want %d restored and the rest computed", filepath.Base(tc.path), st.FromCheckpoint, st.Computed, tc.restored)
		}
		if n := strings.Count(log.String(), "torn"); n != tc.warnings {
			t.Errorf("%s: %d torn-record warnings, want %d:\n%s", filepath.Base(tc.path), n, tc.warnings, log.String())
		}
		if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
			t.Errorf("%s: resumed summary diverged from sim.Run", filepath.Base(tc.path))
		}
	}
}

// TestSummarizeExactlyOnce pins the merge layer itself: duplicated,
// overlapping or missing partials must be rejected.
func TestSummarizeExactlyOnce(t *testing.T) {
	p := testParams(sim.Conventional)
	o := sim.Options{Iterations: 500, MissionTime: 1e5, Seed: 9, Workers: 2}
	parts, err := sim.RunRange(p, o, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Summarize(o, parts); err != nil {
		t.Fatalf("valid partials rejected: %v", err)
	}
	dup := append(append([]sim.Partial(nil), parts...), parts[0])
	if _, err := sim.Summarize(o, dup); err == nil {
		t.Error("duplicate partial accepted")
	}
	if _, err := sim.Summarize(o, parts[1:]); err == nil {
		t.Error("gap accepted")
	}
	bad := append([]sim.Partial(nil), parts...)
	bad[2].Seed++
	if _, err := sim.Summarize(o, bad); err == nil {
		t.Error("foreign-seed partial accepted")
	}
}

// pipeTransports returns two in-memory transports wired back-to-back.
func pipeTransports() (server, client transport) {
	cr, sw := newChanPipe()
	sr, cw := newChanPipe()
	server = newTransport(struct {
		*chanReader
		*chanWriter
	}{sr, sw})
	client = newTransport(struct {
		*chanReader
		*chanWriter
	}{cr, cw})
	return server, client
}

// chanPipe is a tiny in-memory byte pipe (io.Pipe without the
// half-close subtleties).
type chanReader struct {
	ch  chan []byte
	buf []byte
}
type chanWriter struct{ ch chan []byte }

func newChanPipe() (*chanReader, *chanWriter) {
	ch := make(chan []byte, 64)
	return &chanReader{ch: ch}, &chanWriter{ch: ch}
}

func (r *chanReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		b, ok := <-r.ch
		if !ok {
			return 0, fmt.Errorf("pipe closed")
		}
		r.buf = b
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (w *chanWriter) Write(p []byte) (int, error) {
	b := append([]byte(nil), p...)
	w.ch <- b
	return len(p), nil
}
