package chaos_test

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"herald/internal/chaos"
)

// sink is a one-connection TCP server recording every byte it
// receives; done closes when the connection ends.
type sink struct {
	ln   net.Listener
	mu   sync.Mutex
	got  []byte
	done chan struct{}
}

func newSink(t *testing.T) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				s.mu.Lock()
				s.got = append(s.got, buf[:n]...)
				s.mu.Unlock()
			}
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *sink) addr() string { return s.ln.Addr().String() }

func (s *sink) snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.got...)
}

// waitDone blocks until the sink's connection closed, or fails the test.
func (s *sink) waitDone(t *testing.T) {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("sink connection never closed")
	}
}

func pattern(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestScheduleDeterministic pins the chaos contract that makes replays
// meaningful: a schedule is a pure function of its seed.
func TestScheduleDeterministic(t *testing.T) {
	actions := []chaos.Action{chaos.Delay, chaos.Stall, chaos.Partition, chaos.Cut}
	a := chaos.Schedule(42, 32, 1<<20, actions, 500*time.Millisecond)
	b := chaos.Schedule(42, 32, 1<<20, actions, 500*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := chaos.Schedule(43, 32, 1<<20, actions, 500*time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i, ev := range a.Events {
		if ev.At < 1 || ev.At > 1<<20 {
			t.Errorf("event %d offset %d outside [1, span]", i, ev.At)
		}
		if ev.Action == chaos.Cut && ev.Dur != 0 {
			t.Errorf("event %d: cut carries a duration", i)
		}
		if ev.Action != chaos.Cut && (ev.Dur <= 0 || ev.Dur > 500*time.Millisecond) {
			t.Errorf("event %d duration %v outside (0, maxDur]", i, ev.Dur)
		}
	}
}

// TestCutForwardsExactOffset pins byte-exact fault placement: a Cut at
// offset N delivers exactly N bytes and then severs both legs, on
// every replay.
func TestCutForwardsExactOffset(t *testing.T) {
	const at = 137
	for round := 0; round < 2; round++ {
		s := newSink(t)
		script := chaos.Script{Events: []chaos.Event{{Dir: chaos.Up, At: at, Action: chaos.Cut}}}
		p, err := chaos.NewProxy(s.addr(), func(int) chaos.Script { return script })
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Write past the cut; the tail must never arrive.
		payload := pattern('x', 4096)
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		c.Write(payload)
		s.waitDone(t)
		if got := s.snapshot(); len(got) != at {
			t.Fatalf("round %d: cut at %d forwarded %d bytes", round, at, len(got))
		}
		c.Close()
		p.Close()
	}
}

// TestStallDiscardsWindow pins the silent-loss semantics: bytes sent
// into a stalled direction vanish, the connection stays up, and
// delivery resumes when the window lapses.
func TestStallDiscardsWindow(t *testing.T) {
	s := newSink(t)
	script := chaos.Script{Events: []chaos.Event{{Dir: chaos.Up, At: 100, Action: chaos.Stall, Dur: 400 * time.Millisecond}}}
	p, err := chaos.NewProxy(s.addr(), func(int) chaos.Script { return script })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(pattern('a', 100)) // delivered; triggers the stall at offset 100
	time.Sleep(50 * time.Millisecond)
	c.Write(pattern('b', 50)) // inside the window: silently lost
	time.Sleep(600 * time.Millisecond)
	c.Write(pattern('c', 60)) // after the window: delivered
	time.Sleep(100 * time.Millisecond)
	c.Close()
	s.waitDone(t)
	want := append(pattern('a', 100), pattern('c', 60)...)
	if got := s.snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("stall window delivered %d bytes (want 100 a's then 60 c's)", len(got))
	}
}

// TestDelayHoldsBytes pins that Delay is a latency spike, not loss:
// bytes behind the delay arrive late but intact.
func TestDelayHoldsBytes(t *testing.T) {
	s := newSink(t)
	script := chaos.Script{Events: []chaos.Event{{Dir: chaos.Up, At: 10, Action: chaos.Delay, Dur: 400 * time.Millisecond}}}
	p, err := chaos.NewProxy(s.addr(), func(int) chaos.Script { return script })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(pattern('d', 30))
	time.Sleep(100 * time.Millisecond)
	if got := len(s.snapshot()); got != 10 {
		t.Fatalf("mid-delay the sink has %d bytes, want exactly 10", got)
	}
	time.Sleep(600 * time.Millisecond)
	c.Close()
	s.waitDone(t)
	if got := s.snapshot(); !bytes.Equal(got, pattern('d', 30)) {
		t.Fatalf("after the delay the sink has %d bytes, want all 30", len(got))
	}
}

// TestPartitionSuppressesClose pins the semantics a retrying shard Join's
// retry/return distinction rests on: while a partition holds, a peer's
// close is invisible — the survivor sees a silent link, not an EOF.
func TestPartitionSuppressesClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	p, err := chaos.NewProxy(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var srvConn net.Conn
	select {
	case srvConn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("proxy never reached the server")
	}
	p.Inject(chaos.Partition, chaos.Up, 5*time.Second)
	srvConn.Close()
	// The client must NOT see the FIN: its read times out instead.
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read through a partition returned %v, want timeout (close must not propagate)", err)
	}
}
