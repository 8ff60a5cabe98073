// Package chaos is a deterministic fault-injection harness for the
// shard transport. Its centerpiece is a TCP proxy whose per-connection
// byte streams are disturbed by scripted events — latency spikes,
// one-way stalls, two-way partitions, abrupt cuts — triggered at exact
// byte offsets, so a fault lands in precisely the same protocol
// position on every replay. Schedules can be derived from a seeded
// xrand stream (Schedule), making whole chaos runs a pure function of
// their seed; Inject covers timing-relative faults ("stall the link
// now that the worker has joined") that byte offsets cannot express.
//
// Fault semantics mirror the real network:
//
//   - a stalled or partitioned direction silently discards bytes — the
//     peer sees a live TCP connection carrying nothing, which only a
//     heartbeat read deadline can detect;
//   - while a partition holds, a peer's close is NOT propagated: the
//     other side never sees the FIN, exactly like a network split, and
//     must time out on its own;
//   - a cut closes both legs after forwarding exactly At bytes, so an
//     offset inside a frame produces the mid-frame truncation
//     (io.ErrUnexpectedEOF at the decoder) that distinguishes a crash
//     from a clean coordinator close.
package chaos

import (
	"net"
	"sort"
	"sync"
	"time"

	"herald/internal/xrand"
)

// Dir names a forwarding direction through the proxy.
type Dir int

const (
	// Up is the dialer→target byte stream (worker→coordinator when a
	// worker joins through the proxy).
	Up Dir = iota
	// Down is the target→dialer byte stream.
	Down
)

func (d Dir) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Action is the kind of disturbance an Event applies.
type Action int

const (
	// Delay pauses forwarding of the event's direction for Dur; bytes
	// queue in kernel buffers and then flow (a latency spike, no loss).
	Delay Action = iota
	// Stall silently discards the event's direction for Dur: a one-way
	// freeze the peer can only detect by heartbeat read deadline.
	Stall
	// Partition discards both directions for Dur and suppresses close
	// propagation while it holds (neither side sees the other's FIN).
	Partition
	// Cut abruptly closes both legs after forwarding exactly At bytes.
	Cut
)

func (a Action) String() string {
	switch a {
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	case Partition:
		return "partition"
	case Cut:
		return "cut"
	}
	return "unknown"
}

// Event is one scripted disturbance, triggered when the cumulative
// byte count forwarded in Dir reaches At.
type Event struct {
	Dir    Dir
	At     int64
	Action Action
	Dur    time.Duration // ignored by Cut
}

// Script is the set of events applied to one proxied connection.
// Events fire in At order per direction; several events may share an
// offset.
type Script struct {
	Events []Event
}

// Schedule derives a Script of n events from a seed: directions,
// byte offsets in [1, span], actions drawn from actions, durations in
// (0, maxDur]. The same inputs always produce the identical script —
// chaos runs replay exactly.
func Schedule(seed uint64, n int, span int64, actions []Action, maxDur time.Duration) Script {
	src := xrand.New(seed)
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev := Event{
			Dir:    Dir(src.Intn(2)),
			At:     1 + int64(src.Float64()*float64(span)),
			Action: actions[src.Intn(len(actions))],
		}
		if ev.At > span {
			ev.At = span
		}
		if ev.Action != Cut {
			ev.Dur = time.Duration(1 + int64(src.Float64()*float64(maxDur)))
		}
		evs = append(evs, ev)
	}
	return Script{Events: evs}
}

// Proxy is a fault-injecting TCP forwarder. Each accepted connection
// is piped to the current target through a link that applies the
// connection's script. SetTarget redirects links accepted afterwards —
// the lever for coordinator-restart tests, where a supervised worker
// keeps redialing the proxy while the coordinator moves.
type Proxy struct {
	ln      net.Listener
	scripts func(conn int) Script

	mu     sync.Mutex
	target string
	links  []*link
	nconn  int
	closed bool

	wg sync.WaitGroup
}

// NewProxy starts a proxy on an ephemeral localhost port forwarding to
// target. scripts, when non-nil, supplies the fault script for the
// i-th accepted connection (i counts from 0); nil means no scripted
// faults (Inject still works).
func NewProxy(target string, scripts func(conn int) Script) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, scripts: scripts}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's dialable address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetTarget redirects connections accepted from now on; existing links
// keep their original target.
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// Conns reports how many connections the proxy has accepted.
func (p *Proxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nconn
}

// Inject applies an action to every live link right now, regardless of
// byte offsets: Stall/Partition open their discard window for dur, Cut
// severs the links. (Delay is meaningless here and ignored.) This is
// the trigger for faults whose moment is defined by protocol state —
// "once the worker has joined" — rather than a byte position.
func (p *Proxy) Inject(action Action, dir Dir, dur time.Duration) {
	p.mu.Lock()
	links := append([]*link(nil), p.links...)
	p.mu.Unlock()
	for _, l := range links {
		l.apply(Event{Dir: dir, Action: action, Dur: dur})
	}
}

// Close severs every live link and stops accepting.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := append([]*link(nil), p.links...)
	p.mu.Unlock()
	err := p.ln.Close()
	for _, l := range links {
		l.cut()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		idx := p.nconn
		p.nconn++
		target := p.target
		p.mu.Unlock()
		var sc Script
		if p.scripts != nil {
			sc = p.scripts(idx)
		}
		// The link is live for Inject before the target is dialed, so a
		// fault injected the moment the far side accepts cannot miss it.
		l := newLink(c, sc)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		p.links = append(p.links, l)
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.dropLink(l)
			t, err := net.DialTimeout("tcp", target, 5*time.Second)
			if err != nil {
				// The dialer got a connection (to us) whose far side never
				// came up: close it mid-handshake, which the shard layer
				// must treat as a retryable error, not a clean close.
				l.cut()
				return
			}
			if !l.attach(t) {
				t.Close() // cut (proxy closed, or an injected Cut) while dialing
				return
			}
			l.run()
		}()
	}
}

func (p *Proxy) dropLink(l *link) {
	p.mu.Lock()
	for i, x := range p.links {
		if x == l {
			p.links = append(p.links[:i], p.links[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// link is one proxied connection pair with its fault state.
type link struct {
	dialer, target net.Conn   // target is set by attach, under mu
	events         [2][]Event // per direction, sorted by At

	mu         sync.Mutex
	stallUntil [2]time.Time
	severed    bool // cut before the target was attached

	cutOnce sync.Once
	pipes   sync.WaitGroup
}

func newLink(dialer net.Conn, sc Script) *link {
	l := &link{dialer: dialer}
	for _, ev := range sc.Events {
		if ev.Dir != Up && ev.Dir != Down {
			continue
		}
		l.events[ev.Dir] = append(l.events[ev.Dir], ev)
	}
	for d := range l.events {
		evs := l.events[d]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	}
	return l
}

// attach completes the link with its dialed target. It reports false
// when the link was cut while the dial was in flight.
func (l *link) attach(target net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.severed {
		return false
	}
	l.target = target
	return true
}

func (l *link) run() {
	l.pipes.Add(2)
	go l.pipe(Up, l.dialer, l.target)
	go l.pipe(Down, l.target, l.dialer)
	l.pipes.Wait()
	l.cut()
}

// pipe forwards one direction, splitting the stream at event offsets
// so every fault lands after exactly At forwarded bytes.
func (l *link) pipe(dir Dir, src, dst net.Conn) {
	defer l.pipes.Done()
	evs := l.events[dir]
	next := 0
	var count int64
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			b := buf[:n]
			for len(b) > 0 {
				if next < len(evs) && count+int64(len(b)) >= evs[next].At {
					k := evs[next].At - count
					if k < 0 {
						k = 0
					}
					if k > 0 {
						if l.forward(dir, dst, b[:k]) != nil {
							l.cut()
							return
						}
						count += k
						b = b[k:]
					}
					ev := evs[next]
					next++
					if !l.apply(ev) {
						return // cut
					}
					continue
				}
				if l.forward(dir, dst, b) != nil {
					l.cut()
					return
				}
				count += int64(len(b))
				b = nil
			}
		}
		if err != nil {
			if l.blackholed(dir) {
				// A partitioned peer never sees the close: leave the
				// other leg open and let its read deadline do the work.
				return
			}
			l.cut()
			return
		}
	}
}

// forward delivers bytes unless the direction is inside a discard
// window (then they are silently lost, like packets into a partition).
func (l *link) forward(dir Dir, dst net.Conn, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if l.blackholed(dir) {
		return nil
	}
	_, err := dst.Write(b)
	return err
}

// apply performs an event's action now; it reports false when the link
// was cut.
func (l *link) apply(ev Event) bool {
	switch ev.Action {
	case Delay:
		time.Sleep(ev.Dur)
	case Stall:
		l.mu.Lock()
		l.stallLocked(ev.Dir, ev.Dur)
		l.mu.Unlock()
	case Partition:
		l.mu.Lock()
		l.stallLocked(Up, ev.Dur)
		l.stallLocked(Down, ev.Dur)
		l.mu.Unlock()
	case Cut:
		l.cut()
		return false
	}
	return true
}

func (l *link) stallLocked(dir Dir, dur time.Duration) {
	u := time.Now().Add(dur)
	if u.After(l.stallUntil[dir]) {
		l.stallUntil[dir] = u
	}
}

func (l *link) blackholed(dir Dir) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Now().Before(l.stallUntil[dir])
}

func (l *link) cut() {
	l.cutOnce.Do(func() {
		l.mu.Lock()
		l.severed = true
		target := l.target
		l.mu.Unlock()
		l.dialer.Close()
		if target != nil {
			target.Close()
		}
	})
}
