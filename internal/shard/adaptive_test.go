package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"herald/internal/sim"
)

// adaptiveOptions returns CI-scale adaptive options whose stopping
// rule binds well inside the cap for testParams configurations.
func adaptiveOptions() sim.Options {
	return sim.Options{
		Iterations:      60000,
		MissionTime:     2e5,
		Seed:            20170327,
		Workers:         2,
		TargetHalfWidth: 1.5e-5,
	}
}

// TestAdaptiveShardedMatchesInProcess pins the adaptive determinism
// contract across the execution stack: a sharded adaptive run stops at
// the identical cell boundary as the in-process sim.Run, for every
// policy and several shard counts, with a byte-identical Summary.
func TestAdaptiveShardedMatchesInProcess(t *testing.T) {
	for _, pol := range []sim.Policy{sim.Conventional, sim.AutoFailover, sim.DualParity} {
		p := testParams(pol)
		o := adaptiveOptions()
		base, err := sim.Run(p, o)
		if err != nil {
			t.Fatalf("%v: baseline: %v", pol, err)
		}
		if base.Iterations >= o.Iterations {
			t.Fatalf("%v: adaptive baseline hit the cap (%d); loosen the target", pol, base.Iterations)
		}
		want := summaryBytes(t, base)
		for _, shards := range []int{1, 2, 7} {
			workers := []Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}
			got, st, err := runStats(runCfg{Params: p, Options: o, Shards: shards, Workers: workers})
			if err != nil {
				t.Fatalf("%v shards=%d: %v", pol, shards, err)
			}
			if g := summaryBytes(t, got); string(g) != string(want) {
				t.Errorf("%v shards=%d: adaptive sharded summary diverged\n got %s\nwant %s", pol, shards, g, want)
			}
			if !st.StoppedEarly {
				t.Errorf("%v shards=%d: run did not stop early", pol, shards)
			}
			if st.Waves < 1 {
				t.Errorf("%v shards=%d: no waves opened", pol, shards)
			}
		}
	}
}

// TestAdaptiveWaveKilledWorker SIGKILLs a real worker process mid-wave
// during an adaptive run: the coordinator must reassign its shard,
// still converge to the target, and report the byte-identical Summary
// of an undisturbed adaptive run (exactly-once merging).
func TestAdaptiveWaveKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	p := testParams(sim.Conventional)
	o := adaptiveOptions()
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
	// Kill one worker before the run: its first assignment fails like a
	// mid-wave death and the survivor absorbs the wave.
	if err := workers[0].(*processWorker).Kill(); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	got, st, err := runStats(runCfg{Params: p, Options: o, Shards: 4, Workers: workers, Log: &log})
	if err != nil {
		t.Fatalf("%v (log: %s)", err, log.String())
	}
	if st.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1 (log: %s)", st.WorkerFailures, log.String())
	}
	if !got.Converged || got.HalfWidth > o.TargetHalfWidth {
		t.Errorf("run did not converge: half-width %g, target %g", got.HalfWidth, o.TargetHalfWidth)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("adaptive summary diverged after worker kill")
	}
}

// TestAdaptiveCheckpointResume interrupts an adaptive run after some
// wave shards complete, then resumes from the checkpoint: only the
// remainder recomputes and the result is byte-identical.
func TestAdaptiveCheckpointResume(t *testing.T) {
	p := testParams(sim.Conventional)
	o := adaptiveOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "adaptive.ckpt")

	// First attempt: the only worker dies after 2 shards, failing the
	// run — but those shards are checkpointed.
	_, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 2, Checkpoint: cpPath,
		Workers: []Worker{&flakyWorker{inner: NewInProcessWorker("w", 1), failAfter: 2}},
	})
	if err == nil {
		t.Fatal("expected first attempt to fail")
	}
	if st.Computed != 2 {
		t.Fatalf("first attempt computed %d shards, want 2", st.Computed)
	}

	got, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 2, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCheckpoint != 2 {
		t.Errorf("resume restored %d shards, want 2", st.FromCheckpoint)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("resumed adaptive summary diverged from the in-process baseline")
	}
}

// TestAdaptiveCheckpointTornTail extends the torn-tail recovery test
// to open-ended (adaptive) runs: a crash mid-append tears the last
// checkpoint record; resume drops it, recomputes that shard, and still
// converges byte-identically.
func TestAdaptiveCheckpointTornTail(t *testing.T) {
	p := testParams(sim.Conventional)
	o := adaptiveOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "adaptive.ckpt")

	// Interrupted first attempt leaves a partial checkpoint.
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 2, Checkpoint: cpPath,
		Workers: []Worker{&flakyWorker{inner: NewInProcessWorker("w", 1), failAfter: 3}},
	}); err == nil {
		t.Fatal("expected interrupted attempt to fail")
	}

	// Tear the final record mid-line, as a crash during append would.
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) < 3 { // header + >= 2 records
		t.Fatalf("checkpoint has %d lines, want >= 3", len(lines))
	}
	last := lines[len(lines)-1]
	torn := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	torn = append(torn, last[:len(last)/2]...)
	if err := os.WriteFile(cpPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	got, st, err := runStats(runCfg{
		Params: p, Options: o, Shards: 2, Checkpoint: cpPath,
		Workers: []Worker{NewInProcessWorker("w", 1)},
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "torn") {
		t.Errorf("log does not mention the torn record:\n%s", log.String())
	}
	if st.FromCheckpoint != 2 {
		t.Errorf("resume restored %d shards, want 2 (one of 3 torn)", st.FromCheckpoint)
	}
	if !got.Converged {
		t.Error("resumed run did not converge")
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("summary diverged after torn adaptive checkpoint")
	}
}

// TestPipelineMatchesSequential pins the sweep pipelining contract:
// runs executed through one shared pool are byte-identical to the same
// runs executed one after another, and results come back in spec
// order with nondecreasing completion offsets... completion offsets
// are per-run; only their positivity is guaranteed.
func TestPipelineMatchesSequential(t *testing.T) {
	heps := []float64{0, 0.005, 0.02}
	specs := make([]RunSpec, 0, len(heps))
	var want [][]byte
	for _, hep := range heps {
		p := sim.PaperDefaults(4, 1e-4, hep)
		o := testOptions()
		base, err := sim.Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, summaryBytes(t, base))
		specs = append(specs, RunSpec{Params: p, Options: o, Shards: 3})
	}
	workers := []Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}
	res, err := RunPipeline(specs, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Fatalf("pipeline returned %d results, want %d", len(res), len(specs))
	}
	for i, r := range res {
		if g := summaryBytes(t, r.Summary); string(g) != string(want[i]) {
			t.Errorf("point %d: pipelined summary diverged\n got %s\nwant %s", i, g, want[i])
		}
		if r.Wall <= 0 {
			t.Errorf("point %d: non-positive completion offset %v", i, r.Wall)
		}
		if r.Stats.Computed != r.Stats.Shards {
			t.Errorf("point %d: computed %d of %d shards", i, r.Stats.Computed, r.Stats.Shards)
		}
	}
}

// TestPipelineMixedAdaptiveFixed pipelines an adaptive run behind a
// fixed one and checks both match their solo executions.
func TestPipelineMixedAdaptiveFixed(t *testing.T) {
	pFixed := testParams(sim.DualParity)
	oFixed := testOptions()
	baseFixed, err := sim.Run(pFixed, oFixed)
	if err != nil {
		t.Fatal(err)
	}
	pAdapt := testParams(sim.Conventional)
	oAdapt := adaptiveOptions()
	baseAdapt, err := sim.Run(pAdapt, oAdapt)
	if err != nil {
		t.Fatal(err)
	}
	workers := []Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}
	res, err := RunPipeline([]RunSpec{
		{Params: pFixed, Options: oFixed, Shards: 2},
		{Params: pAdapt, Options: oAdapt, Shards: 2},
	}, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := summaryBytes(t, res[0].Summary); string(g) != string(summaryBytes(t, baseFixed)) {
		t.Error("fixed run diverged in the mixed pipeline")
	}
	if g := summaryBytes(t, res[1].Summary); string(g) != string(summaryBytes(t, baseAdapt)) {
		t.Error("adaptive run diverged in the mixed pipeline")
	}
	if !res[1].Stats.StoppedEarly {
		t.Error("adaptive run in pipeline did not stop early")
	}
}

// TestWorkerCancelProtocol pins the v2 cancel exchange at the protocol
// level: a job answered by a cancel comes back as a cancelled message
// and the worker stays usable for the next job. The cancelled job is a
// raw line in the form older coordinators send, with the retired
// "cancellable" job field, so it also pins that such a job still runs
// and cancels.
func TestWorkerCancelProtocol(t *testing.T) {
	server, client := pipeTransports()
	go func() { _ = serveConn(server) }()

	p := testParams(sim.Conventional)
	wire, err := EncodeParams(p)
	if err != nil {
		t.Fatal(err)
	}
	// A large job the cancel will interrupt.
	o := sim.Options{Iterations: 5_000_000, MissionTime: 2e5, Seed: 1, Workers: 1}
	pj, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	oj, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{"type":"job","id":0,"job":{"id":7,"start":0,"end":%d,"params":%s,"options":%s,"cancellable":true}}`,
		o.Iterations, pj, oj)
	if err := client.(*connTransport).enc.Encode(json.RawMessage(legacy)); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(&Message{Type: MsgCancel, ID: 7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for {
		type recvd struct {
			m   *Message
			err error
		}
		ch := make(chan recvd, 1)
		go func() {
			m, err := client.Recv()
			ch <- recvd{m, err}
		}()
		var m *Message
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatal(r.err)
			}
			m = r.m
		case <-deadline:
			t.Fatal("no cancelled acknowledgement before deadline")
		}
		if m.Type == MsgHello {
			continue
		}
		if m.Type != MsgCancelled || m.ID != 7 {
			t.Fatalf("got message %q id %d, want cancelled id 7", m.Type, m.ID)
		}
		break
	}

	// The worker is still usable: a small follow-up job completes.
	o2 := sim.Options{Iterations: 500, MissionTime: 2e5, Seed: 1, Workers: 1}
	if err := client.Send(&Message{Type: MsgJob, Job: &Job{ID: 8, Start: 0, End: 500, Params: wire, Options: o2}}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == MsgHello {
			continue
		}
		if m.Type != MsgResult || m.ID != 8 {
			t.Fatalf("got message %q id %d, want result id 8", m.Type, m.ID)
		}
		if err := sim.CheckPartials(p, o2, 0, 500, m.Partials); err != nil {
			t.Errorf("follow-up job returned invalid partials: %v", err)
		}
		break
	}

	// A cancel that overtakes its job (the coordinator's cancel send
	// can win the transport mutex) is tombstoned: the job is answered
	// cancelled without executing.
	if err := client.Send(&Message{Type: MsgCancel, ID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(&Message{Type: MsgJob, Job: &Job{ID: 9, Start: 0, End: o.Iterations, Params: wire, Options: o}}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == MsgHello {
			continue
		}
		if m.Type != MsgCancelled || m.ID != 9 {
			t.Fatalf("got message %q id %d, want cancelled id 9", m.Type, m.ID)
		}
		break
	}
}

// TestInProcessWorkerCancel pins ErrJobCancelled on the in-process
// backend.
func TestInProcessWorkerCancel(t *testing.T) {
	p := testParams(sim.Conventional)
	wire, err := EncodeParams(p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewInProcessWorker("w", 1)
	o := sim.Options{Iterations: 5_000_000, MissionTime: 2e5, Seed: 2, Workers: 1}
	job := &Job{ID: 3, Start: 0, End: o.Iterations, Params: wire, Options: o}
	errc := make(chan error, 1)
	go func() {
		_, err := w.Run(job)
		errc <- err
	}()
	// Let the job start, then cancel it.
	time.Sleep(20 * time.Millisecond)
	w.(JobCanceler).CancelJob(3)
	select {
	case err := <-errc:
		if err != ErrJobCancelled {
			t.Fatalf("Run returned %v, want ErrJobCancelled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Run did not return")
	}

	// A cancel that races ahead of Run is tombstoned: the job must not
	// execute at all.
	w.(JobCanceler).CancelJob(4)
	if _, err := w.Run(&Job{ID: 4, Start: 0, End: o.Iterations, Params: wire, Options: o}); err != ErrJobCancelled {
		t.Fatalf("pre-cancelled Run returned %v, want ErrJobCancelled", err)
	}
}

// TestCancelTombstonesBounded answers jobs and then cancels them, as a
// cancel that lost its race to the reply does: the executor keeps at
// most maxTombstones of those cancels, and a cancel that overtakes its
// job still answers that job cancelled.
func TestCancelTombstonesBounded(t *testing.T) {
	wire, err := EncodeParams(testParams(sim.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	o := sim.Options{Iterations: 16, MissionTime: 1e3, Seed: 1, Workers: 1}
	job := func(id int) *Job { return &Job{ID: id, Start: 0, End: o.Iterations, Params: wire, Options: o} }
	coord, worker := newLink()
	ex := newJobExecutor(worker)
	defer ex.shutdown()
	const jobs = 4 * maxTombstones
	for id := 1; id <= jobs; id++ {
		ex.enqueue(job(id))
		if m, err := coord.Recv(); err != nil || m.Type != MsgResult || m.ID != id {
			t.Fatalf("job %d: got %+v, %v; want its result", id, m, err)
		}
		ex.cancel(id)
	}
	ex.mu.Lock()
	n := len(ex.cancelled)
	ex.mu.Unlock()
	if n > maxTombstones {
		t.Errorf("%d jobs answered and then cancelled leave %d tombstones, want at most %d", jobs, n, maxTombstones)
	}

	ex.cancel(jobs + 1)
	ex.enqueue(job(jobs + 1))
	if m, err := coord.Recv(); err != nil || m.Type != MsgCancelled || m.ID != jobs+1 {
		t.Fatalf("a job behind its cancel: got %+v, %v; want it cancelled", m, err)
	}
}

// planDispatcher is a worker-less dispatcher through which tests bank
// a run's claims by hand.
func planDispatcher() *dispatcher {
	d := &dispatcher{logw: io.Discard, assigned: map[int]*assignment{}, done: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// roundUpCell rounds n up to a cell boundary of a cap-iteration run,
// stopping at the cap.
func roundUpCell(n, cap int) int {
	cs := sim.CellSize(cap)
	return min((n+cs-1)/cs*cs, cap)
}

// TestAdaptivePartition pins an adaptive run's horizon: the first
// claims stop at max(floor, P cells); the cursor never passes the
// horizon; and the horizon always lies at least one cell past the
// folded prefix, so the run never stalls. Claims bank in cell order,
// one at a time, until the rule binds or the cap is reached.
func TestAdaptivePartition(t *testing.T) {
	for _, tc := range []struct{ cap, floor, p int }{
		{1_000_000, 0, 8}, {1_000_000, 100_000, 4}, {2000, 0, 2}, {64, 0, 16}, {50_000, 50_000, 3},
	} {
		o := adaptiveOptions()
		o.Iterations = tc.cap
		if tc.floor > 0 {
			o.Iterations, o.MaxIters = tc.floor, tc.cap
		}
		r, err := newRunState(0, &RunSpec{Params: testParams(sim.Conventional), Options: o}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		cs := sim.CellSize(tc.cap)
		d := planDispatcher()
		var pending []sim.Range
		claimAll := func() {
			for {
				rg, ok := r.claimRange(tc.p)
				if n := r.scan.End(); r.horizon < min(n+cs, tc.cap) {
					t.Fatalf("%+v: horizon %d not a cell past the folded prefix %d", tc, r.horizon, n)
				}
				if !ok {
					return
				}
				if rg.End > r.horizon || rg.Start%cs != 0 {
					t.Fatalf("%+v: claim %+v passes the horizon %d or is not cell-aligned", tc, rg, r.horizon)
				}
				pending = append(pending, rg)
			}
		}
		claimAll()
		if want := roundUpCell(max(tc.floor, tc.p*cs), tc.cap); r.cursor != want {
			t.Errorf("%+v: first claims stop at %d, want %d", tc, r.cursor, want)
		}
		for !r.finished {
			if len(pending) == 0 {
				t.Fatalf("%+v: run stalled at cursor %d, horizon %d, folded %d", tc, r.cursor, r.horizon, r.scan.End())
			}
			rg := pending[0]
			pending = pending[1:]
			parts, err := sim.RunRange(r.spec.Params, r.jobOptions, rg.Start, rg.End)
			if err != nil {
				t.Fatal(err)
			}
			d.bank(jobKey{r: r, rg: rg}, 0, parts)
			if !r.finished {
				claimAll()
			}
		}
		base, err := sim.Run(r.spec.Params, o)
		if err != nil {
			t.Fatal(err)
		}
		if string(summaryBytes(t, r.summary)) != string(summaryBytes(t, base)) {
			t.Errorf("%+v: hand-banked summary diverged from sim.Run", tc)
		}
	}
}

// TestAdaptiveTCPWorker runs an adaptive sharded run over a real TCP
// worker, exercising the remote job/cancel exchange end to end.
func TestAdaptiveTCPWorker(t *testing.T) {
	addr := make(chan net.Addr, 1)
	go func() {
		_ = ListenAndServeNetStop("127.0.0.1:0", NetConfig{}, func(a net.Addr) { addr <- a }, nil)
	}()
	w, err := DialNet((<-addr).String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	p := testParams(sim.Conventional)
	o := adaptiveOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := runStats(runCfg{Params: p, Options: o, Shards: 2, Workers: []Worker{w}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.StoppedEarly {
		t.Error("TCP adaptive run did not stop early")
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("TCP adaptive summary diverged from the in-process baseline")
	}
}

// TestAdaptivePartitionWeighted pins guided sizing: every claim off
// the cursor is ⌈remaining/P⌉ cells, at least one, where remaining runs
// to the horizon — the cap for a fixed-N run, max(floor, P cells) for
// an adaptive run that has folded nothing yet. Capacities weigh
// nothing: a faster worker simply claims again sooner.
func TestAdaptivePartitionWeighted(t *testing.T) {
	fixed := sim.Options{Iterations: 1_000_000, MissionTime: 2e5, Seed: 1}
	adaptive := adaptiveOptions()
	adaptive.Iterations, adaptive.MaxIters = 100_000, 1_000_000
	for _, o := range []sim.Options{fixed, adaptive} {
		for _, p := range []int{1, 3, 4, 16} {
			r, err := newRunState(0, &RunSpec{Params: testParams(sim.Conventional), Options: o}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cs := sim.CellSize(o.IterationCap())
			for rg, ok := r.claimRange(p); ok; rg, ok = r.claimRange(p) {
				remaining := (r.horizon - rg.Start + cs - 1) / cs // cells
				want := min(rg.Start+max(1, (remaining+p-1)/p)*cs, r.horizon)
				if rg.End != want {
					t.Fatalf("adaptive=%v p=%d: claim %+v, want [%d,%d) (%d cells left)",
						o.Adaptive(), p, rg, rg.Start, want, remaining)
				}
			}
			if want := roundUpCell(max(o.Iterations, p*cs), o.IterationCap()); r.cursor != want {
				t.Errorf("adaptive=%v p=%d: claims stop at %d, want the horizon %d", o.Adaptive(), p, r.cursor, want)
			}
		}
	}
}

// TestAdaptiveHeterogeneousPoolBitIdentical runs the adaptive run on a
// capacity-skewed pool (a wide worker next to a narrow one): the wide
// worker returns sooner and claims more, and the Summary must stay
// byte-identical to the in-process run — who claims what may move work
// between workers, never change the result.
func TestAdaptiveHeterogeneousPoolBitIdentical(t *testing.T) {
	for _, pol := range []sim.Policy{sim.Conventional, sim.AutoFailover} {
		p := testParams(pol)
		o := adaptiveOptions()
		base, err := sim.Run(p, o)
		if err != nil {
			t.Fatalf("%v: baseline: %v", pol, err)
		}
		want := summaryBytes(t, base)
		workers := []Worker{
			NewInProcessWorker("wide", 3),
			NewInProcessWorker("narrow", 1),
		}
		got, st, err := runStats(runCfg{Params: p, Options: o, Workers: workers})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if g := summaryBytes(t, got); string(g) != string(want) {
			t.Errorf("%v: heterogeneous-pool summary diverged\n got %s\nwant %s", pol, g, want)
		}
		if !st.StoppedEarly {
			t.Errorf("%v: heterogeneous-pool run did not stop early", pol)
		}
	}
}
