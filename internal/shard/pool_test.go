package shard

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herald/internal/dist"
	"herald/internal/sim"
)

// countingWorker counts the jobs its wrapped worker runs, keeping the
// wrapped worker's pipeline depth.
type countingWorker struct {
	Worker
	jobs atomic.Int32
}

func (w *countingWorker) Run(job *Job) ([]sim.Partial, error) {
	w.jobs.Add(1)
	return w.Worker.Run(job)
}

func (w *countingWorker) PipelineDepth() int { return w.Worker.(Pipeliner).PipelineDepth() }

// TestPoolSubmitMatchesSim pins the persistent-pool contract: runs
// submitted one by one to a long-lived Pool return Summaries
// byte-identical to in-process sim.Run, and the pool stays usable
// between them. A pool of joiners alone divides a run without Shards
// by its live slots, so every joiner takes part.
func TestPoolSubmitMatchesSim(t *testing.T) {
	workers := []Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}
	pool, err := NewPool(workers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, pol := range []sim.Policy{sim.Conventional, sim.AutoFailover} {
		p := testParams(pol)
		o := testOptions()
		base, err := sim.Run(p, o)
		if err != nil {
			t.Fatalf("%v: baseline: %v", pol, err)
		}
		tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 5}, nil)
		if err != nil {
			t.Fatalf("%v: submit: %v", pol, err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("%v: wait: %v", pol, err)
		}
		if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
			t.Errorf("%v: pool summary diverged\n got %s\nwant %s", pol, g, w)
		}
	}

	ln, joiners, err := ListenWorkers("127.0.0.1:0", NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	joinErr := make(chan error, 2)
	source := make(chan Worker, 2)
	var joined []*countingWorker
	for i := 0; i < 2; i++ {
		go func() { joinErr <- Join(ln.Addr().String(), 1, NetConfig{}, nil) }()
		w := &countingWorker{Worker: <-joiners}
		joined = append(joined, w)
		source <- w
	}
	jpool, err := NewPool(nil, source, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The claim divisor is read at claim time: submit once both
	// joiners' slots are live.
	for deadline := time.Now().Add(10 * time.Second); jpool.Health().LiveSlots < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("join-only pool health %+v, want both joiners' 4 slots", jpool.Health())
		}
	}
	// Long enough that every slot wakes and claims before the first
	// claims finish.
	p, o := testParams(sim.Conventional), testOptions()
	o.Iterations = 500_000
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := jpool.Submit(context.Background(), RunSpec{Params: p, Options: o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	jpool.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("join-only pool summary diverged\n got %s\nwant %s", g, w)
	}
	for i, w := range joined {
		if w.jobs.Load() == 0 {
			t.Errorf("joiner %d ran no job of the run (stats %+v)", i, res.Stats)
		}
		if err := <-joinErr; err != nil {
			t.Errorf("join returned %v, want clean close", err)
		}
	}
}

// TestPoolConcurrentSubmits drives several concurrent submissions
// through one pool; every ticket must resolve to its own
// bit-identical result.
func TestPoolConcurrentSubmits(t *testing.T) {
	workers := []Worker{NewInProcessWorker("a", 2), NewInProcessWorker("b", 2)}
	pool, err := NewPool(workers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			p := testParams(sim.Conventional)
			o := testOptions()
			o.Seed = seed
			base, err := sim.Run(p, o)
			if err != nil {
				errs[i] = err
				return
			}
			tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 3}, nil)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := tk.Wait()
			if err != nil {
				errs[i] = err
				return
			}
			if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
				errs[i] = fmt.Errorf("seed %d: summary diverged", seed)
			}
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestPoolAdaptiveProgress submits an adaptive and a fixed-N run with
// a progress observer and checks the contract the streaming API builds
// on: iterations are monotone non-decreasing, the last event is final
// and carries the summary's numbers, and the summary is byte-identical
// to the in-process baseline. The adaptive run ends converged; the
// fixed run reports +Inf half-widths until its final event and never
// converges.
func TestPoolAdaptiveProgress(t *testing.T) {
	p := testParams(sim.Conventional)
	for _, spec := range []RunSpec{
		{Params: p, Options: adaptiveOptions()},
		{Params: p, Options: testOptions(), Shards: 8},
	} {
		adaptive := spec.Options.Adaptive()
		base, err := sim.Run(p, spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		workers := []Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}
		pool, err := NewPool(workers, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var events []RunProgress
		tk, err := pool.Submit(context.Background(), spec, func(pr RunProgress) {
			mu.Lock()
			events = append(events, pr)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(events) == 0 {
			t.Fatalf("adaptive=%v: no progress events", adaptive)
		}
		last := events[len(events)-1]
		if !last.Final {
			t.Errorf("adaptive=%v: last event not final: %+v", adaptive, last)
		}
		for i := 1; i < len(events); i++ {
			if events[i].Iterations < events[i-1].Iterations {
				t.Errorf("adaptive=%v: iterations not monotone: event %d %d after %d",
					adaptive, i, events[i].Iterations, events[i-1].Iterations)
			}
		}
		if !adaptive {
			for i, ev := range events[:len(events)-1] {
				if !math.IsInf(ev.HalfWidth, 1) {
					t.Errorf("fixed run: non-final event %d has half-width %g, want +Inf", i, ev.HalfWidth)
				}
			}
		}
		if last.Iterations != base.Iterations || last.Iterations != res.Summary.Iterations {
			t.Errorf("adaptive=%v: final iterations %d, baseline %d, summary %d",
				adaptive, last.Iterations, base.Iterations, res.Summary.Iterations)
		}
		if last.Converged != adaptive {
			t.Errorf("adaptive=%v: final event converged = %v", adaptive, last.Converged)
		}
		if last.HalfWidth != res.Summary.HalfWidth {
			t.Errorf("adaptive=%v: final half-width %g, summary %g", adaptive, last.HalfWidth, res.Summary.HalfWidth)
		}
		if string(summaryBytes(t, res.Summary)) != string(summaryBytes(t, base)) {
			t.Errorf("adaptive=%v: pooled summary diverged from sim.Run", adaptive)
		}
		mu.Unlock()
	}
}

// blockingWorker runs a job only after release is closed; it lets pool
// shutdown tests hold a run deterministically in flight.
type blockingWorker struct {
	inner   Worker
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWorker) Name() string { return "blocking" }
func (w *blockingWorker) Run(job *Job) ([]sim.Partial, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.inner.Run(job)
}
func (w *blockingWorker) Close() error { return w.inner.Close() }

// TestPoolCloseResolvesTickets closes a pool while a run is held in
// flight; the ticket must resolve with an error instead of hanging, and
// later submissions must be rejected.
func TestPoolCloseResolvesTickets(t *testing.T) {
	bw := &blockingWorker{
		inner:   NewInProcessWorker("inner", 1),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	pool, err := NewPool([]Worker{bw}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := pool.Submit(context.Background(), RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-bw.started
	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	res, err := tk.Wait()
	if err == nil {
		t.Fatalf("ticket resolved cleanly despite close: %+v", res.Summary)
	}
	close(bw.release) // let the worker finish so Close can join it
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("pool.Close did not return")
	}
	if _, err := pool.Submit(context.Background(), RunSpec{Params: testParams(sim.Conventional), Options: testOptions()}, nil); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestPoolDeadWithoutWorkers pins the persistent pool's failure mode:
// when the last worker dies and no joiner can arrive, in-flight tickets
// resolve with an error and future submissions fail fast.
func TestPoolDeadWithoutWorkers(t *testing.T) {
	pool, err := NewPool([]Worker{dyingWorker{}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tk, err := pool.Submit(context.Background(), RunSpec{Params: testParams(sim.Conventional), Options: testOptions()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Fatal("ticket resolved cleanly on a dead pool")
	}
	if pool.Err() == nil {
		t.Fatal("pool reports no error after its last worker died")
	}
	if _, err := pool.Submit(context.Background(), RunSpec{Params: testParams(sim.Conventional), Options: testOptions()}, nil); err == nil {
		t.Fatal("submit on a dead pool succeeded")
	}
}

// dyingWorker fails every job with a transport-style error, so the
// coordinator retires it as dead.
type dyingWorker struct{}

func (dyingWorker) Name() string                    { return "dying" }
func (dyingWorker) Run(*Job) ([]sim.Partial, error) { return nil, errors.New("boom") }
func (dyingWorker) Close() error                    { return nil }

// TestJoinStopDrainsGracefully exercises the worker-side graceful
// shutdown: a join-mode worker told to stop mid-run finishes or hands
// back its jobs and returns nil, while the run completes bit-identical
// on the surviving worker.
func TestJoinStopDrainsGracefully(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	ln, joiners, err := ListenWorkers("127.0.0.1:0", NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	stop := make(chan struct{})
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- Join(ln.Addr().String(), 1, NetConfig{}, stop)
	}()
	joined := <-joiners // the worker's handshake completed
	defer joined.Close()

	done := make(chan struct{})
	var res []RunResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = RunPipeline(
			[]RunSpec{{Params: p, Options: o, Shards: 16}},
			[]Worker{joined, NewInProcessWorker("local", 1)}, nil)
	}()
	close(stop) // drain the joined worker mid-run
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if g, w := summaryBytes(t, res[0].Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("summary diverged after graceful drain\n got %s\nwant %s", g, w)
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Errorf("Join returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Join did not return")
	}
}

// TestListenAndServeNetStop exercises the serve-mode graceful shutdown:
// the listener told to stop returns nil after its connections drain,
// and a run in progress completes on the surviving worker.
func TestListenAndServeNetStop(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ListenAndServeNetStop("127.0.0.1:0", NetConfig{}, func(a net.Addr) { addrCh <- a }, stop)
	}()
	addr := <-addrCh
	remote, err := DialNet(addr.String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	done := make(chan struct{})
	var res []RunResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = RunPipeline(
			[]RunSpec{{Params: p, Options: o, Shards: 16}},
			[]Worker{remote, NewInProcessWorker("local", 1)}, nil)
	}()
	close(stop) // drain the TCP worker mid-run
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if g, w := summaryBytes(t, res[0].Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("summary diverged after serve-side drain\n got %s\nwant %s", g, w)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("ListenAndServeNetStop returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ListenAndServeNetStop did not return")
	}
}

// TestRunFingerprintStable pins the exported fingerprint across
// processes and versions: result caches key on it, so it must never
// drift for an unchanged configuration.
func TestRunFingerprintStable(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	fp, err := fingerprintOf(p, o)
	if err != nil {
		t.Fatal(err)
	}
	const want = "2ea47804102c0eb2139542508b915ce8"
	if fp != want {
		t.Errorf("fingerprint drifted: got %s, want %s", fp, want)
	}
}

// TestRunFingerprintScheduleIndependent checks what the fingerprint
// must and must not cover.
func TestRunFingerprintScheduleIndependent(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := fingerprintOf(p, o)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule-only knobs do not change the result, so not the key.
	o2 := o
	o2.Workers = 17
	if fp, _ := fingerprintOf(p, o2); fp != base {
		t.Error("Workers changed the fingerprint")
	}
	// The confidence default and its explicit value are one run.
	o3 := o
	o3.Confidence = 0.99
	if fp, _ := fingerprintOf(p, o3); fp != base {
		t.Error("default vs explicit confidence changed the fingerprint")
	}
	// Result-affecting fields must change the key.
	o4 := o
	o4.Seed++
	if fp, _ := fingerprintOf(p, o4); fp == base {
		t.Error("seed change kept the fingerprint")
	}
	o5 := o
	o5.Iterations *= 2
	if fp, _ := fingerprintOf(p, o5); fp == base {
		t.Error("iteration change kept the fingerprint")
	}
	// Biasing changes the sampled measure, so biased and unbiased runs
	// must never alias — and auto is its own key (it resolves
	// deterministically, but against the parameters).
	o6 := o
	o6.Bias = 4
	fpBias, _ := fingerprintOf(p, o6)
	if fpBias == base {
		t.Error("bias factor kept the fingerprint")
	}
	o7 := o
	o7.Bias = sim.BiasAuto
	if fp, _ := fingerprintOf(p, o7); fp == base || fp == fpBias {
		t.Error("auto bias aliased another run")
	}
	// An explicit factor 1 is off — one run with the unbiased default.
	o8 := o
	o8.Bias = 1
	if fp, _ := fingerprintOf(p, o8); fp != base {
		t.Error("explicit bias 1 changed the fingerprint")
	}
}

// openFDs counts this process's open descriptors, -1 where
// /proc/self/fd does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestDeadJoinersReleased pins that a long-lived pool keeps nothing of
// a joiner that left: after joiners join and leave one by one and runs
// retire their serve slots, the pool retains no dead joiner and, where
// /proc/self/fd exists, the process holds no more descriptors than
// before the first one joined.
func TestDeadJoinersReleased(t *testing.T) {
	ln, joiners, err := ListenWorkers("127.0.0.1:0", NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pool, err := NewPool([]Worker{NewInProcessWorker("local", 1)}, joiners, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	waitSlots := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); pool.Health().LiveSlots != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the pool has %d live slots, want %d", pool.Health().LiveSlots, want)
			}
		}
	}
	before := openFDs()

	const cycles = 20
	for i := 0; i < cycles; i++ {
		stop := make(chan struct{})
		joinErr := make(chan error, 1)
		go func() { joinErr <- Join(ln.Addr().String(), 1, NetConfig{}, stop) }()
		waitSlots(1 + 2*(i+1)) // the in-process worker's slot and two per joiner
		close(stop)
		if err := <-joinErr; err != nil {
			t.Fatalf("cycle %d: Join returned %v", i, err)
		}
	}
	// A departed joiner's slots retire on their next claim, which fails.
	spec := RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 64}
	for deadline := time.Now().Add(30 * time.Second); pool.Health().LiveSlots > 1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots of departed joiners still live", pool.Health().LiveSlots-1)
		}
		tk, err := pool.Submit(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d := pool.d
	d.mu.Lock()
	joined, dead := len(d.joined), len(d.deadWorker)
	d.mu.Unlock()
	if joined != 0 || dead != 0 {
		t.Errorf("the pool retains %d joined and %d dead workers after %d joiners left", joined, dead, cycles)
	}
	if after := openFDs(); after > before {
		t.Errorf("%d descriptors open after %d joiners left, %d before", after, cycles, before)
	}
}

// TestSubmitRefusesWhatWorkersRefuse pins admission: a run sim.Resolve
// refuses — the memoryless kernel or a bias factor on a Weibull TTF —
// fails Submit with Resolve's error, naming the kernel or the factor as
// given, before a checkpoint opens or a job leaves; the pool still runs
// a valid run byte-identically; and in a pipeline the refused run fails
// alone.
func TestSubmitRefusesWhatWorkersRefuse(t *testing.T) {
	cw := &countingWorker{Worker: NewInProcessWorker("w", 1)}
	defer cw.Close()
	pool, err := NewPool([]Worker{cw}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	weibull := testParams(sim.Conventional)
	weibull.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
	for _, tc := range []struct {
		kernel sim.Kernel
		bias   float64
		want   string
	}{
		{sim.KernelMemoryless, 0, "kernel memoryless"},
		{sim.KernelAuto, sim.BiasAuto, "bias auto"},
		{sim.KernelAuto, 4, "bias 4"},
	} {
		o := testOptions()
		o.Kernel, o.Bias = tc.kernel, tc.bias
		_, want := sim.Resolve(weibull, o)
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		_, err := pool.Submit(context.Background(), RunSpec{Params: weibull, Options: o, Checkpoint: ckpt}, nil)
		switch {
		case err == nil || want == nil:
			t.Errorf("%s: Submit error %v, Resolve error %v; want both to refuse", tc.want, err, want)
			continue
		case err.Error() != want.Error():
			t.Errorf("%s: Submit error %q, want Resolve's %q", tc.want, err, want)
		case !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "bias -1") ||
			strings.Contains(err.Error(), "factor -1"):
			t.Errorf("%s: error %q does not name it so", tc.want, err)
		}
		if _, err := os.Stat(ckpt); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: a refused run left a checkpoint (stat: %v)", tc.want, err)
		}
	}
	if n := cw.jobs.Load(); n != 0 {
		t.Errorf("refused runs dispatched %d jobs", n)
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("refused submissions killed the pool: %v", err)
	}
	p, o := testParams(sim.Conventional), testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, res.Summary)) != string(summaryBytes(t, base)) {
		t.Error("a valid run after refused ones diverged from sim.Run")
	}

	refused := testOptions()
	refused.Bias = sim.BiasAuto
	out, err := RunPipeline([]RunSpec{{Params: weibull, Options: refused}, {Params: p, Options: o}}, []Worker{cw}, nil)
	if err == nil || !strings.Contains(err.Error(), "bias auto") {
		t.Errorf("pipeline: error %v, want the refused run's", err)
	}
	if string(summaryBytes(t, out[1].Summary)) != string(summaryBytes(t, base)) {
		t.Error("pipeline: the run beside a refused one diverged from sim.Run")
	}
}

// refusingWorker answers every job of the run with the given seed with
// a job-scoped error, as a live worker refusing a job's configuration
// does, and runs the others.
type refusingWorker struct {
	Worker
	seed uint64
}

func (w *refusingWorker) Run(job *Job) ([]sim.Partial, error) {
	if job.Options.Seed == w.seed {
		return nil, &jobError{ID: job.ID, Msg: "configuration refused"}
	}
	return w.Worker.Run(job)
}

// TestJobErrorFailsOnlyItsRun pins that a job-scoped error fails the
// job's run and nothing else: its ticket resolves with the worker's
// message, the pool stays usable, and a second run on the same pool,
// or beside the refused one in a pipeline, is byte-identical to
// sim.Run.
func TestJobErrorFailsOnlyItsRun(t *testing.T) {
	p := testParams(sim.Conventional)
	refused, good := testOptions(), testOptions()
	good.Seed++
	base, err := sim.Run(p, good)
	if err != nil {
		t.Fatal(err)
	}
	w := &refusingWorker{Worker: NewInProcessWorker("w", 1), seed: refused.Seed}
	defer w.Close()
	pool, err := NewPool([]Worker{w}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: refused}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil || !strings.Contains(err.Error(), "configuration refused") {
		t.Fatalf("refused run: error %v, want the worker's message", err)
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("a job-scoped error killed the pool: %v", err)
	}
	tk, err = pool.Submit(context.Background(), RunSpec{Params: p, Options: good}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, res.Summary)) != string(summaryBytes(t, base)) {
		t.Error("the run after a refused one diverged from sim.Run")
	}

	out, err := RunPipeline([]RunSpec{{Params: p, Options: refused}, {Params: p, Options: good}}, []Worker{w}, nil)
	if err == nil || !strings.Contains(err.Error(), "configuration refused") {
		t.Errorf("pipeline: error %v, want the refused run's", err)
	}
	if string(summaryBytes(t, out[1].Summary)) != string(summaryBytes(t, base)) {
		t.Error("pipeline: the run beside a refused one diverged from sim.Run")
	}
}

// TestCheckpointWriteFailsOnlyItsRun pins that a failed checkpoint
// append fails its run alone: the ticket resolves with the write error,
// which names the file, the pool stays alive, and another run on it is
// byte-identical to sim.Run.
func TestCheckpointWriteFailsOnlyItsRun(t *testing.T) {
	p, o := testParams(sim.Conventional), testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	w := &gatedWorker{inner: NewInProcessWorker("w", 1), gate: gate}
	defer w.Close()
	pool, err := NewPool([]Worker{w}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	path := filepath.Join(t.TempDir(), "checkpoint.log")
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Checkpoint: path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The worker holds the first job while the log closes under the run.
	pool.d.mu.Lock()
	err = tk.r.cp.log.Close()
	pool.d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if _, err := tk.Wait(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("run with a failed checkpoint write: error %v, want one naming %s", err, path)
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("a failed checkpoint write killed the pool: %v", err)
	}
	tk, err = pool.Submit(context.Background(), RunSpec{Params: p, Options: o}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, res.Summary)) != string(summaryBytes(t, base)) {
		t.Error("the run after a failed checkpoint write diverged from sim.Run")
	}
}

// TestDeadPoolNamesCause pins that a pool whose last worker failed
// names that failure: a link whose far end says hello with another
// realization, as an older build's stdio worker would, fails the run
// with the mismatch as the cause.
func TestDeadPoolNamesCause(t *testing.T) {
	server, client := pipeTransports()
	if err := server.Send(&Message{Type: MsgHello, Version: protocolVersion, Realization: sim.Realization - 1}); err != nil {
		t.Fatal(err)
	}
	w := newRemoteWorker("proc:123", client, 1)
	defer w.Close()
	_, _, err := runStats(runCfg{Params: testParams(sim.Conventional), Options: testOptions(), Workers: []Worker{w}})
	want := fmt.Sprintf("shard: no live workers remain (last: worker proc:123: realization %d, want %d)",
		sim.Realization-1, sim.Realization)
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

// holdingWorker runs jobs in this process, two at a time. For the run
// with the given seed it holds each job starting at or past stop until
// the coordinator cancels it, and the job ending at stop until such a
// job has arrived, so the run binds at stop with a job in flight. It
// runs other runs' jobs plainly and counts them.
type holdingWorker struct {
	seed       uint64
	stop       int
	arrived    chan struct{} // closed when a job past stop arrives
	cancelled  chan struct{} // closed when the first held job is cancelled
	arriveOnce sync.Once
	cancelOnce sync.Once

	mu    sync.Mutex
	gates map[int]chan struct{}
	jobs  atomic.Int32
}

func (w *holdingWorker) Name() string       { return "holding" }
func (w *holdingWorker) PipelineDepth() int { return 2 }
func (w *holdingWorker) Close() error       { return nil }

// gate returns job id's cancel channel; a cancel may overtake its Run.
func (w *holdingWorker) gate(id int) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.gates[id]
	if !ok {
		ch = make(chan struct{})
		w.gates[id] = ch
	}
	return ch
}

func (w *holdingWorker) CancelJob(id int) {
	ch := w.gate(id)
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-ch:
	default:
		close(ch)
	}
}

func (w *holdingWorker) Run(job *Job) ([]sim.Partial, error) {
	switch {
	case job.Options.Seed != w.seed:
		w.jobs.Add(1)
	case job.Start >= w.stop:
		w.arriveOnce.Do(func() { close(w.arrived) })
		select {
		case <-w.gate(job.ID):
			w.cancelOnce.Do(func() { close(w.cancelled) })
			return nil, ErrJobCancelled
		case <-time.After(10 * time.Second):
		}
	case job.End == w.stop:
		select {
		case <-w.arrived:
		case <-time.After(10 * time.Second):
		}
	}
	p, err := job.Params.Decode()
	if err != nil {
		return nil, err
	}
	return sim.RunRange(p, job.Options, job.Start, job.End)
}

// TestCancelledReplyKeepsWorker drives the cancelled reply through the
// dispatcher: an adaptive run binds while a job past its stopping
// boundary is in flight, the bind cancels that job and counts it, so
// the Stats at Wait are final, the job answers cancelled without a
// worker failure, and the same worker serves the next run
// byte-identically.
func TestCancelledReplyKeepsWorker(t *testing.T) {
	p, o := testParams(sim.Conventional), adaptiveOptions()
	stopped, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Iterations >= o.IterationCap() {
		t.Fatalf("the adaptive run does not stop early (%d of %d iterations)", stopped.Iterations, o.IterationCap())
	}
	next := testOptions()
	next.Seed = o.Seed + 1
	base, err := sim.Run(p, next)
	if err != nil {
		t.Fatal(err)
	}
	w := &holdingWorker{
		seed: o.Seed, stop: stopped.Iterations,
		arrived: make(chan struct{}), cancelled: make(chan struct{}), gates: map[int]chan struct{}{},
	}
	pool, err := NewPool([]Worker{w}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Shards far above the cell count make every claim one cell.
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, res.Summary)) != string(summaryBytes(t, stopped)) {
		t.Fatal("the adaptive run diverged from sim.Run")
	}
	if res.Stats.CancelledJobs < 1 || res.Stats.WorkerFailures != 0 {
		t.Errorf("cancelled jobs %d, worker failures %d at Wait; want at least 1 and 0", res.Stats.CancelledJobs, res.Stats.WorkerFailures)
	}
	select {
	case <-w.cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("binding the run cancelled no job in flight")
	}
	tk2, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: next}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tk2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, res2.Summary)) != string(summaryBytes(t, base)) {
		t.Error("the next run diverged from sim.Run")
	}
	if w.jobs.Load() == 0 {
		t.Error("the worker that answered cancelled served none of the next run")
	}
	pool.Close()
	if after, _ := tk.Wait(); after.Stats != res.Stats {
		t.Errorf("Stats after Close %+v, at Wait %+v", after.Stats, res.Stats)
	}
}
