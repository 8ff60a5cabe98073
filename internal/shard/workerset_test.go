package shard

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"herald/internal/sim"
)

// openedAddr returns the registration address WorkerSet.Open logged.
func openedAddr(t *testing.T, log string) string {
	t.Helper()
	_, rest, ok := strings.Cut(log, "accepting workers on ")
	if !ok {
		t.Fatalf("no listener address in the log:\n%s", log)
	}
	addr, _, _ := strings.Cut(rest, "\n")
	return addr
}

// TestWorkerSetTokenMutualTLS opens a dialed worker and a registration
// listener from one set, both with a token and TLS from one NetConfigs
// call: the remote worker requires the coordinator's client
// certificate, the listener the joiner's. Both reach the pool, the run
// is byte-identical to the single-process one, and release closes the
// listener.
func TestWorkerSetTokenMutualTLS(t *testing.T) {
	certFile, keyFile, caFile := writeTestCerts(t)
	var log syncBuffer
	dialer, listener, err := NetConfigs(NetConfig{Token: "s3cret", Log: &log}, certFile, keyFile, caFile)
	if err != nil {
		t.Fatal(err)
	}
	if listener.TLS.ClientCAs == nil || dialer.TLS.RootCAs == nil || len(dialer.TLS.Certificates) != 1 {
		t.Fatal("NetConfigs did not configure mutual TLS on both sides")
	}
	remote := startWorkerServer(t, listener)

	workers, joiners, release, err := WorkerSet{
		Connect: " ," + remote + ", ", Listen: "127.0.0.1:0", Dialer: dialer, Listener: listener,
	}.Open()
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 {
		t.Fatalf("opened %d initial workers, want the one dialed", len(workers))
	}
	addr := openedAddr(t, log.String())
	joinErr := make(chan error, 1)
	go func() { joinErr <- Join(addr, 1, dialer, nil) }()

	pool, err := NewPool(workers, joiners, nil)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); pool.Health().LiveSlots != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d live slots, want 2 dialed and 2 joined", pool.Health().LiveSlots)
		}
	}
	tk, err := pool.Submit(context.Background(), RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryBytes(t, res.Summary), baselineBytes(t)) {
		t.Error("the run over the opened set differs from the single-process baseline")
	}
	pool.Close()
	if err := <-joinErr; err != nil {
		t.Errorf("the joiner returned %v, want a clean close", err)
	}

	release()
	if c, err := net.DialTimeout("tcp", addr, 2*time.Second); err == nil {
		c.Close()
		t.Error("the registration listener still accepts after release")
	}
	select {
	case _, open := <-joiners:
		if open {
			t.Error("a joiner arrived after release")
		}
	case <-time.After(10 * time.Second):
		t.Error("the joiner source did not close after release")
	}
}

// TestWorkerSetLocalDefault pins what Local 0 means: one process per
// core with neither Connect nor Listen, and none with either.
func TestWorkerSetLocalDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	remote := startWorkerServer(t, NetConfig{})
	for _, tc := range []struct {
		name  string
		set   WorkerSet
		local int
	}{
		{"nothing", WorkerSet{}, 2},
		{"Connect", WorkerSet{Connect: remote}, 0},
		{"Listen", WorkerSet{Listen: "127.0.0.1:0"}, 0},
		{"Local 1 and Listen", WorkerSet{Local: 1, Listen: "127.0.0.1:0"}, 1},
	} {
		workers, joiners, release, err := tc.set.Open()
		if err != nil {
			t.Fatal(err)
		}
		local := 0
		for _, w := range workers {
			if strings.HasPrefix(w.Name(), "proc:") {
				local++
			}
		}
		if local != tc.local || (joiners != nil) != (tc.set.Listen != "") {
			t.Errorf("%s: %d local processes and source %v, want %d and a source only with Listen", tc.name, local, joiners != nil, tc.local)
		}
		release()
	}
}

// TestWorkerSetDialFailureClosesLocal pins Open's error path: a dial
// that fails after the local processes started returns the error naming
// the address and leaves nothing open.
func TestWorkerSetDialFailureClosesLocal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	before := openFDs()
	workers, joiners, release, err := WorkerSet{Local: 2, Connect: dead}.Open()
	if err == nil || !strings.Contains(err.Error(), dead) {
		t.Fatalf("Open returned %v, want the dial error naming %s", err, dead)
	}
	if workers != nil || joiners != nil || release != nil {
		t.Error("a failed Open returned workers, a source or a release func")
	}
	if after := openFDs(); after > before {
		t.Errorf("%d descriptors open after the failed Open, %d before: the local processes were not closed", after, before)
	}
}
