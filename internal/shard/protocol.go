// Package shard distributes Monte-Carlo availability runs across
// processes and machines. Workers — in-process executors, local
// processes spawned via os/exec, or remote machines over TCP — claim a
// run's canonical accumulation cells (internal/sim) in contiguous
// ranges off one cursor, and the coordinator folds the returned cell
// partials into a Summary that is bit-identical to a single-process
// sim.Run, whatever the shard count, worker count or schedule.
//
// Every run follows one lifecycle. Each pool slot claims the next
// batch off the run's cursor — a share of the work left before the
// run's horizon, guided self-scheduling — and claims again when it
// returns, so faster workers simply claim more. Results fold into the
// run's sim.StopScan in completion order as its contiguous banked
// prefix grows; the Summary is read off that fold. A fixed-N run's
// horizon is its cap and its stopping rule never binds. An adaptive
// (precision-targeted) run's horizon is the stopping point projected
// from the folded prefix, the rule is re-checked at every cell boundary
// of the prefix, and outstanding jobs are cancelled once it binds. The
// coordinator pipelines several runs through one shared worker pool so
// a scenario sweep's next point starts while the previous one drains.
// Pool is the one execution engine: RunPipeline wraps it for a fixed
// list of runs (internal/sweep.MonteCarlo), and long-lived processes
// submit to it directly (internal/serve).
//
// The determinism rests on two contracts from lower layers: every
// iteration reseeds its RNG stream from (seed, iteration index), so a
// lifetime is a pure function of the master seed; and partials are
// produced per canonical cell (sim.CellSize is a function of the
// iteration count alone) and merged in cell order, so the
// floating-point merge tree never depends on the partitioning.
//
// Workers speak a newline-delimited JSON protocol (one message object
// per line): hello for the version/auth handshake, job to assign a
// claimed range, result/error to answer, cancel/cancelled to abandon a job
// whose iterations an adaptive run no longer needs, ping as a liveness
// heartbeat. Every Worker the package builds drives one link: the one
// byte-stream transport (stdio pipes or TCP, every frame bounded), or
// the codec-free in-memory link of an in-process worker; at its far
// end one job executor runs every job. TCP links (coordinator-dials-
// worker and worker-joins-coordinator alike) open with a three-message
// authenticated hello exchange — optionally inside TLS — and carry
// heartbeats both ways, so a half-open or stalled peer is detected
// within a bounded deadline instead of wedging a receive loop forever.
// Completed ranges are appended to a checkpoint log, so a killed
// coordinator resumes without recomputing them, and ranges assigned to
// a worker that dies are handed to the survivors. See README.md
// ("Sharded execution" and "Adaptive precision") for the full protocol
// and failure-handling story.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"herald/internal/dist"
	"herald/internal/ndjson"
	"herald/internal/sim"
)

// protocolVersion identifies the wire protocol; hello messages carry
// it and mismatches abort the connection. Version 2 added the
// cancel/cancelled pair adaptive runs use to abandon jobs whose
// iterations the stopping rule made unnecessary. Version 3 added the
// authenticated handshake (nonce/mac hello fields), heartbeat pings
// with read deadlines, worker join/registration (capacity
// advertisement), and queued job delivery (double-buffering): a
// coordinator may keep more than one job outstanding per connection
// and the worker executes them strictly in arrival order.
const protocolVersion = 3

// helloMismatch refuses a hello of another protocol version or another
// sim.Realization, and returns nil for one of this build's.
func helloMismatch(m *Message) error {
	switch {
	case m.Version != protocolVersion:
		return fmt.Errorf("protocol version %d, want %d", m.Version, protocolVersion)
	case m.Realization != sim.Realization:
		return fmt.Errorf("realization %d, want %d", m.Realization, sim.Realization)
	}
	return nil
}

// Message types.
const (
	// MsgHello opens a connection (see the handshake in net.go): it
	// carries the protocol version, a random nonce, and — when a shared
	// token is configured — an HMAC proving knowledge of the token over
	// both sides' nonces. On TCP links each side also advertises its
	// heartbeat interval and, for workers, their job capacity.
	MsgHello = "hello"
	// MsgJob assigns one shard to a worker. Workers queue jobs and
	// execute them one at a time in arrival order, so a coordinator may
	// send the next job before the previous one answered.
	MsgJob = "job"
	// MsgResult returns a completed shard's cell partials.
	MsgResult = "result"
	// MsgError reports a job-level failure (ID set) or a connection-
	// level rejection such as failed authentication (ID zero).
	MsgError = "error"
	// MsgCancel asks the worker to abandon an in-flight job (sent by
	// the coordinator once an adaptive run's stopping rule binds). The
	// worker answers the job with cancelled — or with result/error if
	// the job had already finished when the cancel arrived.
	MsgCancel = "cancel"
	// MsgCancelled acknowledges an abandoned job; no partials follow.
	MsgCancelled = "cancelled"
	// MsgPing is a liveness heartbeat, sent periodically in both
	// directions on TCP links and ignored by the receiver beyond
	// resetting its read deadline. A half-open peer stops producing
	// them and is detected when the deadline fires.
	MsgPing = "ping"
)

// Message is the envelope of every protocol exchange: one JSON object
// per line, with Type selecting which fields are meaningful.
type Message struct {
	Type string `json:"type"`
	// Version accompanies hello.
	Version int `json:"version,omitempty"`
	// Realization accompanies hello: the sender's sim.Realization. A
	// peer of another realization computes other Summary bytes for the
	// same job, so the handshake refuses it as it refuses another
	// protocol version.
	Realization int `json:"realization,omitempty"`
	// Nonce is this side's random handshake nonce (hex), carried by
	// hello messages on authenticated links.
	Nonce string `json:"nonce,omitempty"`
	// MAC is the hex HMAC-SHA256 over both handshake nonces keyed by
	// the shared token; it proves knowledge of the token without
	// sending it.
	MAC string `json:"mac,omitempty"`
	// Capacity is a worker's advertised job parallelism (hello; 0
	// means "all local cores").
	Capacity int `json:"capacity,omitempty"`
	// HeartbeatMS is the sender's heartbeat interval in milliseconds
	// (hello); the receiver sizes its read deadline from it. Zero means
	// the sender does not heartbeat (stdio pipes).
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
	// Job accompanies job messages.
	Job *Job `json:"job,omitempty"`
	// ID names the job a result, error, cancel or cancelled message
	// refers to.
	ID int `json:"id"`
	// Partials carry a result's per-cell outcomes.
	Partials []sim.Partial `json:"partials,omitempty"`
	// Error carries a job failure description.
	Error string `json:"error,omitempty"`
}

// Job describes one shard assignment: the iteration range, plus the
// full simulation configuration so a bare worker process needs no
// other context. ID is unique per coordinator (a pipelined coordinator
// multiplexes several runs over one worker pool, so the job id — not
// the shard index — pairs answers with assignments). Options always
// describe a fixed range: the coordinator strips the adaptive fields
// and substitutes the run's iteration cap before dispatch.
type Job struct {
	ID      int         `json:"id"`
	Start   int         `json:"start"`
	End     int         `json:"end"`
	Params  WireParams  `json:"params"`
	Options sim.Options `json:"options"`
}

// WireParams is the serializable form of sim.ArrayParams, with every
// distribution encoded as a dist.Spec.
type WireParams struct {
	Disks           int        `json:"disks"`
	TTF             dist.Spec  `json:"ttf"`
	Repair          dist.Spec  `json:"repair"`
	TapeRestore     dist.Spec  `json:"tape_restore"`
	HERecovery      *dist.Spec `json:"he_recovery,omitempty"`
	HEP             float64    `json:"hep"`
	CrashRate       float64    `json:"crash_rate"`
	ResyncAfterUndo bool       `json:"resync_after_undo"`
	Policy          int        `json:"policy"`
	SpareRebuild    *dist.Spec `json:"spare_rebuild,omitempty"`
	SpareSwap       *dist.Spec `json:"spare_swap,omitempty"`
}

// EncodeParams converts simulation parameters to their wire form.
func EncodeParams(p sim.ArrayParams) (WireParams, error) {
	w := WireParams{
		Disks:           p.Disks,
		HEP:             p.HEP,
		CrashRate:       p.CrashRate,
		ResyncAfterUndo: p.ResyncAfterUndo,
		Policy:          int(p.Policy),
	}
	var err error
	req := func(name string, d dist.Distribution) dist.Spec {
		if err != nil {
			return dist.Spec{}
		}
		if d == nil {
			err = fmt.Errorf("shard: required distribution %s is nil", name)
			return dist.Spec{}
		}
		sp, e := dist.SpecOf(d)
		if e != nil {
			err = fmt.Errorf("shard: %s: %w", name, e)
		}
		return sp
	}
	opt := func(name string, d dist.Distribution) *dist.Spec {
		if err != nil || d == nil {
			return nil
		}
		sp, e := dist.SpecOf(d)
		if e != nil {
			err = fmt.Errorf("shard: %s: %w", name, e)
			return nil
		}
		return &sp
	}
	w.TTF = req("TTF", p.TTF)
	w.Repair = req("Repair", p.Repair)
	w.TapeRestore = req("TapeRestore", p.TapeRestore)
	w.HERecovery = opt("HERecovery", p.HERecovery)
	w.SpareRebuild = opt("SpareRebuild", p.SpareRebuild)
	w.SpareSwap = opt("SpareSwap", p.SpareSwap)
	if err != nil {
		return WireParams{}, err
	}
	return w, nil
}

// Decode rebuilds the simulation parameters from their wire form.
func (w WireParams) Decode() (sim.ArrayParams, error) {
	p := sim.ArrayParams{
		Disks:           w.Disks,
		HEP:             w.HEP,
		CrashRate:       w.CrashRate,
		ResyncAfterUndo: w.ResyncAfterUndo,
		Policy:          sim.Policy(w.Policy),
	}
	var err error
	req := func(name string, sp dist.Spec) dist.Distribution {
		if err != nil {
			return nil
		}
		d, e := sp.Distribution()
		if e != nil {
			err = fmt.Errorf("shard: %s: %w", name, e)
		}
		return d
	}
	opt := func(name string, sp *dist.Spec) dist.Distribution {
		if err != nil || sp == nil {
			return nil
		}
		d, e := sp.Distribution()
		if e != nil {
			err = fmt.Errorf("shard: %s: %w", name, e)
			return nil
		}
		return d
	}
	p.TTF = req("TTF", w.TTF)
	p.Repair = req("Repair", w.Repair)
	p.TapeRestore = req("TapeRestore", w.TapeRestore)
	p.HERecovery = opt("HERecovery", w.HERecovery)
	p.SpareRebuild = opt("SpareRebuild", w.SpareRebuild)
	p.SpareSwap = opt("SpareSwap", w.SpareSwap)
	if err != nil {
		return sim.ArrayParams{}, err
	}
	return p, nil
}

// transport frames Messages over a link. Send is safe for concurrent
// use; Recv is not.
type transport interface {
	Send(*Message) error
	Recv() (*Message, error)
	Close() error
}

const (
	// handshakeFrameLimit bounds every frame a TCP link receives before
	// its handshake completes. Hellos are a few hundred bytes, so an
	// unauthenticated peer cannot make a listener buffer more than this.
	handshakeFrameLimit = 64 << 10
	// heartbeatDeadlineFactor sizes the read deadline from the peer's
	// advertised heartbeat interval: several missed beats, not one, so
	// scheduling jitter never kills a healthy link.
	heartbeatDeadlineFactor = 4
	// netWriteTimeout bounds every message write on a TCP link: a peer
	// that stopped draining its socket (full TCP buffer on a half-open
	// link) fails the Send instead of wedging it.
	netWriteTimeout = 15 * time.Second
)

// connTransport is the one byte-stream transport: newline-delimited
// JSON over stdio pipes, a TCP (or TLS) connection, or an in-memory
// pipe in tests. One Recv decodes at most in.limit bytes, so a peer
// streaming an endless frame ends the link instead of growing the
// decoder's buffer. On a net.Conn every Send carries a write deadline,
// and after startHeartbeat every Recv a read deadline; stdio gets none.
type connTransport struct {
	mu   sync.Mutex // serializes Send
	enc  *json.Encoder
	dec  *json.Decoder
	in   *frameReader
	c    io.Closer // nil when the stream cannot be closed
	conn net.Conn  // nil unless the stream is a network connection

	readTimeout time.Duration // set once by startHeartbeat
	stop        chan struct{} // closed by Close; ends the pinger
	once        sync.Once
}

// frameReader meters what the decoder pulls off the stream: a Read
// past left fails, so one Recv never buffers more than limit bytes.
type frameReader struct {
	r                 io.Reader
	limit, left, read int64
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, fmt.Errorf("shard: frame exceeds %d bytes", f.limit)
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	f.read += int64(n)
	return n, err
}

// newTransport frames newline-delimited JSON messages over rw, each
// frame bounded by the checkpoint log's line limit. If rw is an
// io.Closer, Close closes it.
func newTransport(rw io.ReadWriter) *connTransport {
	t := &connTransport{
		enc:  json.NewEncoder(rw),
		in:   &frameReader{r: rw, limit: ndjson.MaxLine},
		stop: make(chan struct{}),
	}
	t.dec = json.NewDecoder(t.in)
	t.c, _ = rw.(io.Closer)
	t.conn, _ = rw.(net.Conn)
	return t
}

func (t *connTransport) Send(m *Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		_ = t.conn.SetWriteDeadline(time.Now().Add(netWriteTimeout))
	}
	return t.enc.Encode(m)
}

func (t *connTransport) Recv() (*Message, error) {
	if t.readTimeout > 0 {
		_ = t.conn.SetReadDeadline(time.Now().Add(t.readTimeout))
	}
	// Bytes the decoder already buffered past the previous frame count
	// against this one.
	t.in.left = t.in.limit - (t.in.read - t.dec.InputOffset())
	var m Message
	if err := t.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (t *connTransport) Close() error {
	var err error
	t.once.Do(func() {
		close(t.stop)
		if t.c != nil {
			err = t.c.Close()
		}
	})
	return err
}

// startHeartbeat begins the outgoing ping cadence and arms the read
// deadline from the peer's advertised interval. Call it once, on a
// network connection, after the handshake and before concurrent use.
func (t *connTransport) startHeartbeat(own time.Duration, peerMS int) {
	if peerMS > 0 {
		t.readTimeout = heartbeatDeadlineFactor * time.Duration(peerMS) * time.Millisecond
	}
	if own <= 0 {
		return
	}
	go func() {
		tick := time.NewTicker(own)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				if t.Send(&Message{Type: MsgPing}) != nil {
					return // connection is gone; Recv surfaces it
				}
			}
		}
	}()
}
