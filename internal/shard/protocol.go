// Package shard distributes Monte-Carlo availability runs across
// processes and machines. Workers — local processes spawned via
// os/exec, or remote machines attached over TCP — claim a run's
// canonical accumulation cells (internal/sim) in contiguous ranges off
// one cursor, and the coordinator folds the returned cell partials
// into a Summary that is bit-identical to a single-process sim.Run,
// whatever the shard count, worker count or schedule.
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
// heartbeat. TCP links (coordinator-dials-worker and
// worker-joins-coordinator alike) open with a three-message
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
	"sync"

	"herald/internal/dist"
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

// transport frames Messages over a byte stream: newline-delimited JSON
// in both directions. Send is safe for concurrent use; Recv is not.
type transport interface {
	Send(*Message) error
	Recv() (*Message, error)
	Close() error
}

// connTransport implements transport over any read-write stream (a
// TCP connection, a child process's stdio pipes, an in-memory pipe in
// tests).
type connTransport struct {
	mu   sync.Mutex
	enc  *json.Encoder
	dec  *json.Decoder
	c    io.Closer
	once sync.Once
}

// newTransport frames newline-delimited JSON messages over rw. If rw
// is an io.Closer, Close closes it.
func newTransport(rw io.ReadWriter) transport {
	t := &connTransport{
		enc: json.NewEncoder(rw),
		dec: json.NewDecoder(rw),
	}
	if c, ok := rw.(io.Closer); ok {
		t.c = c
	}
	return t
}

func (t *connTransport) Send(m *Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enc.Encode(m)
}

func (t *connTransport) Recv() (*Message, error) {
	var m Message
	if err := t.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (t *connTransport) Close() error {
	var err error
	t.once.Do(func() {
		if t.c != nil {
			err = t.c.Close()
		}
	})
	return err
}
