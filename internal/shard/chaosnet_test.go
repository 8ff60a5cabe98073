package shard

import (
	"bufio"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"herald/internal/chaos"
	"herald/internal/sim"
)

// chaosNC is the fast-failure NetConfig the chaos tests share: short
// heartbeats so read deadlines trip in milliseconds, short backoff so
// supervised joiners redial immediately.
func chaosNC(seed uint64) NetConfig {
	return NetConfig{
		Token:             "chaos",
		HeartbeatInterval: 50 * time.Millisecond,
		retryBase:         20 * time.Millisecond,
		retryMax:          100 * time.Millisecond,
		retrySeed:         seed,
	}
}

// waitLive polls the pool until at least n workers are live.
func waitLive(t *testing.T, pool *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pool.Health().LiveSlots < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached %d live workers: %+v", n, pool.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosPartitionMidWaveByteIdentical is the headline robustness
// pin: a network partition dropped into the middle of a wave — the
// worker's results vanish, both sides trip their heartbeat deadlines,
// the supervised joiner redials — must leave the Summary byte-identical
// to the in-process baseline.
func TestChaosPartitionMidWaveByteIdentical(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	// Big enough that the wave is still in flight when the first shard
	// banks and triggers the partition (~30ms/shard on one worker).
	o.Iterations = 400000
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	nc := chaosNC(3)
	ln, joiners, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy, err := chaos.NewProxy(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	joinDone := make(chan error, 1)
	go func() { joinDone <- Join(proxy.Addr(), 1, retrying(nc, io.Discard), nil) }()

	logw := &syncLog{}
	pool, err := NewPool(nil, joiners, &PoolOptions{Log: logw})
	if err != nil {
		t.Fatal(err)
	}
	waitLive(t, pool, 1)
	// Partition the link the moment the first shard banks: the wave is
	// provably mid-flight when the fault lands.
	var once sync.Once
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 8}, func(RunProgress) {
		once.Do(func() { proxy.Inject(chaos.Partition, chaos.Up, 2*time.Second) })
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("run across partition: %v\nlog:\n%s", err, logw.String())
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("summary diverged across partition\n got %s\nwant %s", g, w)
	}
	if res.Stats.WorkerFailures == 0 {
		t.Errorf("partition left no worker failure in stats %+v — the fault never landed", res.Stats)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("pool close: %v", err)
	}
	select {
	case err := <-joinDone:
		if err != nil {
			t.Fatalf("join loop ended with %v, want nil after clean close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join loop still running after pool close")
	}
}

// waitCheckpointRecords polls until the checkpoint file holds at least
// n shard records (lines beyond the header).
func waitCheckpointRecords(t *testing.T, path string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f, err := os.Open(path); err == nil {
			lines := 0
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
			for sc.Scan() {
				lines++
			}
			f.Close()
			if lines >= n+1 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint %s never reached %d records", path, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosCoordinatorRestartRejoin kills the coordinator mid-run
// behind a partition (so the worker sees a dead network, not a clean
// close), brings up a replacement on the same checkpoint, and points
// the proxy at it: the supervised worker must redial into the new
// coordinator, the run must resume from the checkpoint, and the final
// Summary must be byte-identical to the baseline.
func TestChaosCoordinatorRestartRejoin(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	// Big enough that shards are still outstanding when the first
	// checkpoint record lands and coordinator A is killed.
	o.Iterations = 800000
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	nc := chaosNC(4)

	lnA, joinersA, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	proxy, err := chaos.NewProxy(lnA.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	joinDone := make(chan error, 1)
	go func() { joinDone <- Join(proxy.Addr(), 1, retrying(nc, io.Discard), nil) }()

	poolA, err := NewPool(nil, joinersA, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Params: p, Options: o, Shards: 16, Checkpoint: ckpt}
	tkA, err := poolA.Submit(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let real progress reach the resume log, then take coordinator A
	// down behind a partition: the worker must never see its FIN.
	waitCheckpointRecords(t, ckpt, 1)
	proxy.Inject(chaos.Partition, chaos.Up, 2*time.Second)
	lnA.Close()
	go poolA.Close()
	if _, err := tkA.Wait(); err == nil {
		t.Fatal("run survived its coordinator dying")
	}

	lnB, joinersB, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	proxy.SetTarget(lnB.Addr().String())
	poolB, err := NewPool(nil, joinersB, nil)
	if err != nil {
		t.Fatal(err)
	}
	tkB, err := poolB.Submit(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tkB.Wait()
	if err != nil {
		t.Fatalf("resumed run on coordinator B: %v", err)
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("summary diverged across coordinator restart\n got %s\nwant %s", g, w)
	}
	if res.Stats.FromCheckpoint == 0 {
		t.Errorf("restart restored nothing from the checkpoint: %+v", res.Stats)
	}
	if err := poolB.Close(); err != nil {
		t.Fatalf("pool B close: %v", err)
	}
	select {
	case err := <-joinDone:
		if err != nil {
			t.Fatalf("join loop ended with %v, want nil after clean close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join loop still running after coordinator B closed")
	}
}

// TestChaosStallTripsHeartbeatDeadline pins failure-detection latency:
// a one-way stall (coordinator→worker bytes silently dropped) must be
// detected by the worker's heartbeat read deadline within the factor-4
// window, not hang.
func TestChaosStallTripsHeartbeatDeadline(t *testing.T) {
	const hb = 100 * time.Millisecond
	nc := NetConfig{Token: "chaos", HeartbeatInterval: hb}
	ln, joiners, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy, err := chaos.NewProxy(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	stop := make(chan struct{})
	defer close(stop)
	joinErr := make(chan error, 1)
	go func() { joinErr <- Join(proxy.Addr(), 1, nc, stop) }()
	var w Worker
	select {
	case w = <-joiners:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never joined through the proxy")
	}
	defer w.Close()
	// The coordinator delivers the worker after sending its final
	// hello; round-trip one tiny job so the stall provably lands on a
	// fully joined session, not on the in-flight handshake ack.
	wp, err := EncodeParams(testParams(sim.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(&Job{ID: 1, Start: 0, End: 64, Params: wp, Options: testOptions()}); err != nil {
		t.Fatalf("probe job: %v", err)
	}
	start := time.Now()
	proxy.Inject(chaos.Stall, chaos.Down, 30*time.Second)
	select {
	case err := <-joinErr:
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("stalled session ended cleanly; a stall must be an error, or a retrying Join would not reconnect")
		}
		// The read deadline is heartbeatDeadlineFactor (4) times the
		// coordinator's advertised interval; allow generous CI slack.
		if limit := heartbeatDeadlineFactor*hb + 2*time.Second; elapsed > limit {
			t.Errorf("stall detected after %v, want within %v", elapsed, limit)
		}
		if elapsed < hb {
			t.Errorf("session died after %v, before a heartbeat could even be missed", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never detected the stalled link")
	}
}
