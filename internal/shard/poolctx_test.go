package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"herald/internal/sim"
)

func newBlockedPool(t *testing.T) (*Pool, *blockingWorker) {
	t.Helper()
	bw := &blockingWorker{
		inner:   NewInProcessWorker("inner", 1),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	pool, err := NewPool([]Worker{bw}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pool, bw
}

// finishPool releases a held worker and closes the pool.
func finishPool(t *testing.T, pool *Pool, bw *blockingWorker) {
	t.Helper()
	select {
	case <-bw.release:
	default:
		close(bw.release)
	}
	pool.Close()
}

// TestSubmitCtxCancelAbortsRun pins deadline propagation: cancelling
// the submission context resolves the ticket with the cancellation
// cause, and the pool survives to run the next submission
// bit-identically.
func TestSubmitCtxCancelAbortsRun(t *testing.T) {
	pool, bw := newBlockedPool(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tk, err := pool.Submit(ctx, RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-bw.started
	cancel()
	if _, err := tk.Wait(); err == nil {
		t.Fatal("cancelled run resolved cleanly")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want a context.Canceled chain", err)
	}
	// The pool must stay healthy: release the worker and run again.
	close(bw.release)
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 2}, nil)
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	res, err := tk2.Wait()
	if err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("post-cancel summary diverged\n got %s\nwant %s", g, w)
	}
	pool.Close()
}

// TestSubmitCtxDeadlineAbortsRun pins the -run-timeout path: an
// expired context deadline aborts the in-flight run with a
// DeadlineExceeded chain.
func TestSubmitCtxDeadlineAbortsRun(t *testing.T) {
	pool, bw := newBlockedPool(t)
	defer finishPool(t, pool, bw)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	tk, err := pool.Submit(ctx, RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-bw.started
	if _, err := tk.Wait(); err == nil {
		t.Fatal("overdue run resolved cleanly")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overdue run returned %v, want a DeadlineExceeded chain", err)
	}
}

// TestSubmitCtxRejectsDoneContext pins fail-fast submission: an
// already-cancelled context never reaches the dispatcher.
func TestSubmitCtxRejectsDoneContext(t *testing.T) {
	pool, bw := newBlockedPool(t)
	defer finishPool(t, pool, bw)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Submit(ctx, RunSpec{Params: testParams(sim.Conventional), Options: testOptions()}, nil); err == nil {
		t.Fatal("submit with a done context succeeded")
	}
}

// TestTicketCancel pins the explicit cancel lever used by serve's
// drain path.
func TestTicketCancel(t *testing.T) {
	pool, bw := newBlockedPool(t)
	defer finishPool(t, pool, bw)
	tk, err := pool.Submit(context.Background(), RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-bw.started
	tk.Cancel()
	if _, err := tk.Wait(); err == nil {
		t.Fatal("cancelled ticket resolved cleanly")
	} else if !strings.Contains(err.Error(), "cancelled by caller") {
		t.Fatalf("cancelled ticket returned %v, want a caller-cancel error", err)
	}
}

// TestLocalFallbackCompletesRun pins degraded mode: when every real
// worker dies, the armed in-process fallback finishes the run and the
// Summary stays byte-identical to the in-process baseline.
func TestLocalFallbackCompletesRun(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool([]Worker{dyingWorker{}}, nil, &PoolOptions{LocalFallback: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("run with fallback: %v", err)
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("fallback summary diverged\n got %s\nwant %s", g, w)
	}
	h := pool.Health()
	if !h.FallbackArmed {
		t.Error("health does not report the armed fallback")
	}
	if !h.Ready() {
		t.Errorf("pool with an armed fallback reports unready: %+v", h)
	}
}

// TestPoolOptionsFallbackOnly pins the no-workers degraded
// configuration: a pool may start with nothing but a local fallback.
func TestPoolOptionsFallbackOnly(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(nil, nil, &PoolOptions{LocalFallback: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("fallback-only run: %v", err)
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("fallback-only summary diverged\n got %s\nwant %s", g, w)
	}
}

// TestInProcessWorkersReleaseGoroutines pins that in-process workers
// release what they start: after 50 of them each ran a job and were
// closed, and after a pool whose local fallback ran a run was closed,
// the goroutine count is back at its baseline.
func TestInProcessWorkersReleaseGoroutines(t *testing.T) {
	backToBaseline := func(base int, what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
		}
	}
	p, o := testParams(sim.Conventional), testOptions()
	wire, err := EncodeParams(p)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{ID: 1, Start: 0, End: sim.CellSize(o.Iterations), Params: wire, Options: o}
	base := runtime.NumGoroutine()
	workers := make([]Worker, 50)
	for i := range workers {
		workers[i] = NewInProcessWorker("w", 1)
		if _, err := workers[i].Run(job); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workers {
		w.Close()
	}
	backToBaseline(base, "closed in-process workers")

	pool, err := NewPool(nil, nil, &PoolOptions{LocalFallback: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	backToBaseline(base, "closed pool with a local fallback")
}

// TestPoolHealthTransitions pins the /readyz source of truth: a
// populated pool is ready, a closed pool is not.
func TestPoolHealthTransitions(t *testing.T) {
	pool, err := NewPool([]Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := pool.Health()
	if h.LiveSlots != 2 || !h.Ready() {
		t.Fatalf("fresh pool health %+v, want 2 live workers and ready", h)
	}
	pool.Close()
	if h := pool.Health(); h.Ready() || h.Err == nil {
		t.Fatalf("closed pool health %+v, want unready with an error", h)
	}
}
