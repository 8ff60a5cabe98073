package shard

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"herald/internal/sim"
)

// TestJoinBackoffSequence pins the reconnect ladder: deterministic per
// seed, each delay jittered into [nominal/2, nominal) of the capped
// exponential, reset drops back to base, and distinct seeds diverge.
func TestJoinBackoffSequence(t *testing.T) {
	const base, max = 100 * time.Millisecond, 2 * time.Second
	a := newJoinBackoff(base, max, 7)
	b := newJoinBackoff(base, max, 7)
	var seq []time.Duration
	for i := 0; i < 12; i++ {
		da, db := a.next(), b.next()
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		seq = append(seq, da)
	}
	for i, d := range seq {
		nominal := base
		for k := 0; k < i && nominal < max; k++ {
			nominal *= 2
		}
		if nominal > max {
			nominal = max
		}
		if d < nominal/2 || d >= nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", i, d, nominal/2, nominal)
		}
	}
	a.reset()
	if d := a.next(); d < base/2 || d >= base {
		t.Errorf("after reset: delay %v outside [%v, %v)", d, base/2, base)
	}
	c := newJoinBackoff(base, max, 8)
	diverged := false
	for i := 0; i < 12; i++ {
		if c.next() != seq[i%len(seq)] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("seeds 7 and 8 produced identical jitter sequences")
	}
}

// syncLog is a goroutine-safe log sink for supervision tests.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestJoinLoopRetriesUntilStopped points a supervised joiner at an
// address nobody listens on: every dial fails, the loop must keep
// rescheduling (never return an error), and a stop close must end it
// with nil.
func TestJoinLoopRetriesUntilStopped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port: dials now fail fast
	nc := NetConfig{retryBase: 5 * time.Millisecond, retryMax: 20 * time.Millisecond, retrySeed: 1}
	stop := make(chan struct{})
	logw := &syncLog{}
	done := make(chan error, 1)
	go func() { done <- Join(addr, 1, retrying(nc, logw), stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(logw.String(), "reconnecting in") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("join loop logged no retries:\n%s", logw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stopped join loop returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join loop did not honor stop")
	}
}

// TestJoinLoopCleanCloseEndsLoop runs a full pipeline over a
// supervised joiner: the coordinator finishing and closing the link is
// a clean close, so a retrying Join must return nil instead of reconnecting —
// and the run's Summary must stay byte-identical to the in-process
// baseline.
func TestJoinLoopCleanCloseEndsLoop(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	nc := NetConfig{Token: "join-loop", retryBase: 10 * time.Millisecond, retryMax: 50 * time.Millisecond, retrySeed: 2}
	ln, joiners, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- Join(ln.Addr().String(), 2, retrying(nc, io.Discard), nil) }()

	pool, err := NewPool(nil, joiners, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("run over supervised joiner: %v", err)
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); string(g) != string(w) {
		t.Errorf("summary diverged\n got %s\nwant %s", g, w)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("pool close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("join loop returned %v after a clean coordinator close, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join loop kept reconnecting after a clean coordinator close")
	}
}
