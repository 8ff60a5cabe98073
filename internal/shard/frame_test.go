package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"herald/internal/sim"
	"herald/internal/stats"
)

// readerTransport frames the protocol over a fixed byte stream whose
// writes are discarded.
func readerTransport(data []byte) *connTransport {
	return newTransport(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(data), io.Discard})
}

// errorFrame returns an error message line of exactly n bytes, counting
// the newline that ends it.
func errorFrame(t *testing.T, n int) []byte {
	t.Helper()
	b, err := json.Marshal(&Message{Type: MsgError, ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	pad := n - len(b) - len(`,"error":""`) - 1
	if pad < 0 {
		t.Fatalf("frame of %d bytes is too short", n)
	}
	b, err = json.Marshal(&Message{Type: MsgError, ID: 2, Error: strings.Repeat("x", pad)})
	if err != nil {
		t.Fatal(err)
	}
	if len(b)+1 != n {
		t.Fatalf("built a %d-byte frame, want %d", len(b)+1, n)
	}
	return append(b, '\n')
}

// TestFrameBudget pins the per-Recv frame bound with the budget
// lowered: a frame of exactly the budget decodes, even when the
// previous Recv already buffered part of it, and one byte more fails
// Recv and ends the link.
func TestFrameBudget(t *testing.T) {
	const limit = 256
	ping := []byte(`{"type":"ping","id":1}` + "\n")
	var stream []byte
	stream = append(stream, ping...)
	stream = append(stream, errorFrame(t, limit)...)
	stream = append(stream, ping...)
	stream = append(stream, errorFrame(t, limit+1)...)
	stream = append(stream, ping...)
	tr := readerTransport(stream)
	tr.in.limit = limit
	for i, want := range []string{MsgPing, MsgError, MsgPing} {
		m, err := tr.Recv()
		if err != nil {
			t.Fatalf("frame %d within the budget: %v", i, err)
		}
		if m.Type != want {
			t.Fatalf("frame %d: type %q, want %q", i, m.Type, want)
		}
	}
	if _, err := tr.Recv(); err == nil || !strings.Contains(err.Error(), "frame exceeds 256 bytes") {
		t.Fatalf("frame over the budget: err %v, want a frame-bound failure", err)
	}
	if _, err := tr.Recv(); err == nil {
		t.Fatal("the link decoded on after an oversized frame")
	}
}

// TestListenerDropsUnterminatedHello pins the pre-handshake bound: an
// unauthenticated client streaming a hello that never ends is cut off
// after handshakeFrameLimit bytes, long before the handshake timeout,
// so its writes fail instead of filling the listener's memory.
func TestListenerDropsUnterminatedHello(t *testing.T) {
	addr := startWorkerServer(t, NetConfig{Token: "bounded", handshakeTimeout: 30 * time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = conn.SetWriteDeadline(start.Add(2 * time.Second))
	if _, err := conn.Write([]byte(`{"type":"hello","version":3,"nonce":"`)); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("a"), 32<<10)
	sent := 0
	for {
		n, err := conn.Write(chunk)
		sent += n
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			t.Fatalf("listener still held the connection after %v (%d bytes sent)", time.Since(start), sent)
		case err != nil:
			return // the listener dropped the connection
		case time.Since(start) > 2*time.Second:
			t.Fatalf("listener still reading after %v (%d bytes sent)", time.Since(start), sent)
		}
	}
}

// TestOversizedResultReassigned pins the post-handshake bound from the
// coordinator's side: a worker whose results exceed its link's frame
// budget cannot deliver them, fails once, and the in-process fallback
// finishes the run with a Summary byte-identical to sim.Run.
func TestOversizedResultReassigned(t *testing.T) {
	p, o := testParams(sim.Conventional), testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	server, client := pipeTransports()
	client.(*connTransport).in.limit = 1 << 10 // the hello fits, no result does
	go func() { _ = serveConn(server) }()
	bounded := newRemoteWorker("bounded", client, 1)
	defer bounded.Close()

	pool, err := NewPool([]Worker{bounded}, nil, &PoolOptions{LocalFallback: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tk, err := pool.Submit(context.Background(), RunSpec{Params: p, Options: o, Shards: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.WorkerFailures != 1 {
		t.Errorf("WorkerFailures = %d, want 1", res.Stats.WorkerFailures)
	}
	if !pool.Health().FallbackArmed {
		t.Error("the in-process fallback did not take over")
	}
	if g, w := summaryBytes(t, res.Summary), summaryBytes(t, base); !bytes.Equal(g, w) {
		t.Errorf("summary diverged\n got %s\nwant %s", g, w)
	}
}

// FuzzRecv feeds arbitrary bytes through the one byte-stream decoder,
// a few frames at a time under the pre-handshake budget, and hands what
// decodes to the checks its receiver applies next: a job's parameters
// and options are rebuilt and validated, and a result's partials are
// checked against a fixed small run, biased and unbiased. Partials
// that pass the check must fold into a Summary that encodes, with its
// availability in [0, 1]: this is where bytes from outside the process
// become a Summary. Nothing may panic, hang or read past the frame
// budget.
func FuzzRecv(f *testing.F) {
	p := testParams(sim.Conventional)
	o := testOptions()
	o.Iterations = 128 // two cells: a small result keeps mutants cheap
	o.Bias = sim.BiasAuto
	o.HistogramBins = 4
	unbiased := o
	unbiased.Bias = 0
	wire, err := EncodeParams(p)
	if err != nil {
		f.Fatal(err)
	}
	parts, err := sim.RunRange(p, o, 0, o.Iterations)
	if err != nil {
		f.Fatal(err)
	}
	plain, err := sim.RunRange(p, unbiased, 0, o.Iterations)
	if err != nil {
		f.Fatal(err)
	}
	// edge is a biased result at the edge of what the check lets
	// through: every iteration down for the whole mission, under
	// weights whose squares overflow once the two cells merge.
	edge := append([]sim.Partial(nil), parts...)
	for i := range edge {
		d := &edge[i].Down
		d.Hours = stats.WeightedAccumulator{}
		for j := int64(0); j < d.N; j++ {
			d.Hours.Add(o.MissionTime, 1e154/float64(d.N))
		}
		d.W, d.W2 = d.Hours.SumW(), d.Hours.SumW2()
		d.DU, d.DL = d.W*o.MissionTime, 0
	}
	// summarize folds parts for each run whose check they pass, fails t
	// unless the Summary encodes with an availability in [0, 1], and
	// reports whether any run accepted them.
	summarize := func(t testing.TB, parts []sim.Partial) bool {
		accepted := false
		for _, ro := range []sim.Options{o, unbiased} {
			if sim.CheckPartials(p, ro, 0, ro.Iterations, parts) != nil {
				continue
			}
			accepted = true
			s, err := sim.Summarize(ro, parts)
			if err != nil {
				t.Fatalf("checked partials do not fold: %v", err)
			}
			if _, err := json.Marshal(s); err != nil {
				t.Fatalf("the Summary of checked partials does not encode: %v", err)
			}
			if !(s.Availability >= -1e-12 && s.Availability <= 1+1e-12) {
				t.Fatalf("checked partials fold to availability %v", s.Availability)
			}
		}
		return accepted
	}
	var all []byte
	for _, m := range []*Message{
		{Type: MsgHello, Version: protocolVersion, Nonce: "00112233445566778899aabbccddeeff", MAC: "ab12", Capacity: 2, HeartbeatMS: 3000},
		{Type: MsgJob, Job: &Job{ID: 7, Start: 0, End: o.Iterations, Params: wire, Options: o}},
		{Type: MsgResult, ID: 7, Partials: parts},
		{Type: MsgResult, ID: 8, Partials: plain},
		{Type: MsgResult, ID: 9, Partials: edge},
		{Type: MsgError, ID: 7, Error: "authentication failed"},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		b = append(b, '\n')
		f.Add(b)
		all = append(all, b...)
	}
	f.Add(all)
	// The seeds fit the budget and pass every check, so mutations start
	// from frames that reach the validators.
	seeds := readerTransport(all)
	seeds.in.limit = handshakeFrameLimit
	for i := 0; i < 6; i++ {
		m, err := seeds.Recv()
		if err != nil {
			f.Fatalf("seed frame %d: %v", i, err)
		}
		if m.Job != nil {
			ap, err := m.Job.Params.Decode()
			if err == nil {
				err = ap.Validate()
			}
			if err == nil {
				err = m.Job.Options.Validate()
			}
			if err != nil {
				f.Fatalf("seed job: %v", err)
			}
		}
		if m.Partials != nil && !summarize(f, m.Partials) {
			f.Fatalf("seed result %d refused", m.ID)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := readerTransport(data)
		tr.in.limit = handshakeFrameLimit
		for i := int64(1); i <= 4; i++ {
			m, err := tr.Recv()
			if tr.in.read > i*handshakeFrameLimit {
				t.Fatalf("read %d bytes in %d frames, over the budget", tr.in.read, i)
			}
			if err != nil {
				return
			}
			if m.Job != nil {
				if ap, err := m.Job.Params.Decode(); err == nil {
					_ = ap.Validate()
				}
				_ = m.Job.Options.Validate()
			}
			if m.Partials != nil {
				summarize(t, m.Partials)
			}
		}
	})
}
