package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"herald/internal/sim"
)

// serveConn runs the worker side of the shard protocol over an
// unauthenticated stream (stdio pipes, in-memory pipes in tests): it
// announces itself with a hello, then runs the job loop until the
// coordinator closes the stream. TCP links handshake first (net.go),
// in-memory links need no hello, and both then run the same job loop.
func serveConn(t transport) error {
	if err := t.Send(&Message{Type: MsgHello, Version: protocolVersion, Realization: sim.Realization}); err != nil {
		return err
	}
	return serveJobs(t, nil)
}

// serveJobs is the worker's post-handshake job loop. It answers each
// job message with a result (the job range's cell partials), a
// job-scoped error, or — when a cancel for the job arrives — a
// cancelled acknowledgement. Jobs are queued and executed strictly in
// arrival order off the receive loop, so the loop stays responsive to
// cancels and the coordinator may keep more than one job outstanding
// (protocol v3 double-buffering). It returns nil when the coordinator
// closes the stream.
//
// When stop closes, the worker finishes the job it is running, answers
// every queued job with a cancelled message (the coordinator reassigns
// those shards elsewhere), and closes the transport — which unwinds the
// receive loop cleanly, so the caller sees a nil return. nil stop
// serves until the stream ends.
func serveJobs(t transport, stop <-chan struct{}) error {
	ex := newJobExecutor(t)
	defer ex.shutdown()
	if stop != nil {
		go func() {
			select {
			case <-stop:
				ex.drain()
				t.Close()
			case <-ex.done:
				// Connection ended first; nothing to drain.
			}
		}()
	}
	for {
		m, err := t.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch m.Type {
		case MsgJob:
			if m.Job == nil {
				if err := t.Send(&Message{Type: MsgError, ID: m.ID, Error: "job message without job"}); err != nil {
					return err
				}
				continue
			}
			ex.enqueue(m.Job)
		case MsgCancel:
			ex.cancel(m.ID)
		case MsgHello, MsgPing:
			// Hellos may be echoed by transports; pings are liveness
			// only — receiving one already reset the read deadline.
		default:
			if err := t.Send(&Message{Type: MsgError, ID: m.ID, Error: fmt.Sprintf("unknown message type %q", m.Type)}); err != nil {
				return err
			}
		}
	}
}

// jobExecutor runs queued jobs one at a time in arrival order, off the
// receive goroutine. Cancels interrupt the running job (its stop
// channel), remove a still-queued job, or tombstone a job that has not
// arrived yet (the coordinator's cancel send can overtake the job
// send); all three answer with a cancelled message. Tombstones are
// bounded by maxTombstones.
type jobExecutor struct {
	t transport

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*Job
	stop      map[int]chan struct{}
	cancelled map[int]bool
	closed    bool
	draining  bool
	done      chan struct{}
}

// maxTombstones bounds the cancels an executor remembers for jobs it
// has not seen. A cancel that lost its race to the job's reply leaves a
// tombstone no job clears, job ids being unique per coordinator
// process. A coordinator keeps at most PipelineDepth (2) jobs in flight
// on a link, so at most two tombstones can still await their job; 64
// leaves a wide margin. Evicting one can only let a cancelled job run
// to its end, and the coordinator drops that reply as late.
const maxTombstones = 64

func newJobExecutor(t transport) *jobExecutor {
	e := &jobExecutor{
		t:         t,
		stop:      make(map[int]chan struct{}),
		cancelled: make(map[int]bool),
		done:      make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	go e.run()
	return e
}

func (e *jobExecutor) run() {
	defer close(e.done)
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed && !e.draining {
			e.cond.Wait()
		}
		if len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		if e.cancelled[j.ID] {
			delete(e.cancelled, j.ID)
			e.mu.Unlock()
			_ = e.t.Send(&Message{Type: MsgCancelled, ID: j.ID})
			continue
		}
		st := make(chan struct{})
		e.stop[j.ID] = st
		e.mu.Unlock()
		reply := jobReply(j, st)
		e.mu.Lock()
		delete(e.stop, j.ID)
		e.mu.Unlock()
		// A send failure means the coordinator is gone; the receive
		// loop observes the same condition and shuts the executor down.
		_ = e.t.Send(reply)
	}
}

func (e *jobExecutor) enqueue(j *Job) {
	e.mu.Lock()
	if e.cancelled[j.ID] || e.draining {
		delete(e.cancelled, j.ID)
		e.mu.Unlock()
		_ = e.t.Send(&Message{Type: MsgCancelled, ID: j.ID})
		return
	}
	e.queue = append(e.queue, j)
	e.cond.Signal()
	e.mu.Unlock()
}

func (e *jobExecutor) cancel(id int) {
	e.mu.Lock()
	if st, ok := e.stop[id]; ok {
		// Running: interrupt it; the executor answers cancelled when
		// the stream winds down.
		close(st)
		delete(e.stop, id)
		e.mu.Unlock()
		return
	}
	for i, j := range e.queue {
		if j.ID == id {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.mu.Unlock()
			_ = e.t.Send(&Message{Type: MsgCancelled, ID: id})
			return
		}
	}
	e.cancelled[id] = true
	if len(e.cancelled) > maxTombstones {
		// Job ids rise over a coordinator's life: the least is the oldest.
		oldest := id
		for tomb := range e.cancelled {
			oldest = min(oldest, tomb)
		}
		delete(e.cancelled, oldest)
	}
	e.mu.Unlock()
}

// drain gracefully winds the executor down: the running job (if any)
// completes and its result is sent, every queued job is handed back to
// the coordinator as cancelled for reassignment, and new arrivals are
// answered cancelled immediately. drain returns once the executor
// goroutine has exited — the last in-flight reply is on the wire.
func (e *jobExecutor) drain() {
	e.mu.Lock()
	e.draining = true
	q := e.queue
	e.queue = nil
	e.cond.Signal()
	e.mu.Unlock()
	for _, j := range q {
		_ = e.t.Send(&Message{Type: MsgCancelled, ID: j.ID})
	}
	<-e.done
}

// shutdown interrupts the running job, drops the queue and waits for
// the executor goroutine to exit. Called when the connection is gone,
// so undelivered replies are moot.
func (e *jobExecutor) shutdown() {
	e.mu.Lock()
	e.closed = true
	e.queue = nil
	for id, st := range e.stop {
		close(st)
		delete(e.stop, id)
	}
	e.cond.Signal()
	e.mu.Unlock()
	<-e.done
}

// jobReply executes one job in this process and wraps its outcome as
// the protocol answer. A close of stop abandons the job (the
// coordinator only cancels iterations its stopping rule no longer
// needs), answered cancelled.
func jobReply(j *Job, stop <-chan struct{}) *Message {
	p, err := j.Params.Decode()
	var parts []sim.Partial
	if err == nil {
		parts, err = sim.RunRangeUntil(p, j.Options, j.Start, j.End, stop)
	}
	switch {
	case errors.Is(err, sim.ErrStopped):
		return &Message{Type: MsgCancelled, ID: j.ID}
	case err != nil:
		return &Message{Type: MsgError, ID: j.ID, Error: err.Error()}
	default:
		return &Message{Type: MsgResult, ID: j.ID, Partials: parts}
	}
}

// Worker executes shard jobs on behalf of the coordinator.
type Worker interface {
	// Name identifies the worker in logs and errors.
	Name() string
	// Run executes one job, blocking until its result is available. A
	// returned error means the worker is unusable (its job must be
	// reassigned); job-scoped failures reported by a live remote
	// worker surface as *jobError, and a job abandoned after CancelJob
	// as ErrJobCancelled. Run is safe for concurrent use on workers
	// that advertise a PipelineDepth above one.
	Run(job *Job) ([]sim.Partial, error)
	// Close releases the worker's resources.
	Close() error
}

// Pipeliner is implemented by workers that can usefully hold more than
// one job at a time: the coordinator keeps PipelineDepth jobs
// outstanding so the worker's next job is already queued remotely when
// the previous result lands, hiding the result-decode + round-trip gap.
// Workers without the interface run one job at a time.
type Pipeliner interface {
	PipelineDepth() int
}

// JobCanceler is implemented by workers that can abandon an in-flight
// job on coordinator request (all workers in this package). Cancel is
// best-effort and asynchronous: the pending Run returns
// ErrJobCancelled once the worker acknowledges, or its normal result
// if the job won the race.
type JobCanceler interface {
	CancelJob(id int)
}

// CapacityReporter is an optional Worker facet: the worker's job
// parallelism (a join-mode worker's hello advertisement, an in-process
// worker's configured width). Dispatch does not weigh it — a wider
// worker returns sooner and claims again — but wrappers forward it.
type CapacityReporter interface {
	Capacity() int
}

// ErrJobCancelled reports a job abandoned after a CancelJob request.
// The worker remains usable.
var ErrJobCancelled = errors.New("shard: job cancelled")

// jobError is a job-scoped failure reported by a live worker: the
// job's configuration was rejected rather than the worker dying. The
// coordinator treats it as fatal for the run (re-running the same job
// would fail again) instead of reassigning.
type jobError struct {
	ID  int
	Msg string
}

func (e *jobError) Error() string { return fmt.Sprintf("shard %d: %s", e.ID, e.Msg) }

// remoteWorker drives one link (stdio, TCP or in-memory) as a Worker;
// every Worker this package builds is one. A single pump goroutine owns
// the transport's receive side and routes each reply to the pending Run
// that sent the job, so several Runs can be in flight at once
// (PipelineDepth). Stray result messages — answers for shards no Run is
// waiting on, e.g. re-deliveries after a presumed-lost connection — are
// handed to onStray so the coordinator can still bank them (or drop
// duplicates) instead of losing them.
type remoteWorker struct {
	name string
	t    transport
	// jobWorkers overrides Job.Options.Workers for every job sent
	// through this worker: 1 pins a local sibling process to one core;
	// 0 lets a remote machine use all of its cores; a join-mode
	// worker's advertised capacity caps it there.
	jobWorkers int
	// depth is the number of jobs kept in flight (PipelineDepth).
	depth int

	mu       sync.Mutex
	pending  map[int]chan *Message
	onStray  func(id int, parts []sim.Partial)
	pumpErr  error
	pumpDone chan struct{}
	pumpOnce sync.Once
}

// strayBanker is implemented by workers that can surface stray result
// deliveries; the coordinator installs its exactly-once sink here.
type strayBanker interface {
	setStray(func(id int, parts []sim.Partial))
}

func (w *remoteWorker) setStray(fn func(int, []sim.Partial)) {
	w.mu.Lock()
	w.onStray = fn
	w.mu.Unlock()
}

// newRemoteWorker wraps a protocol transport as a Worker whose jobs run
// with jobWorkers parallelism.
func newRemoteWorker(name string, t transport, jobWorkers int) *remoteWorker {
	return &remoteWorker{
		name:       name,
		t:          t,
		jobWorkers: jobWorkers,
		depth:      2,
		pending:    make(map[int]chan *Message),
		pumpDone:   make(chan struct{}),
	}
}

func (w *remoteWorker) Name() string { return w.name }

// Capacity reports the worker's advertised job parallelism: positive
// jobWorkers came from its hello (join mode) or its spawner; 0 (all of
// an unknown number of cores) advertises nothing.
func (w *remoteWorker) Capacity() int { return w.jobWorkers }

// PipelineDepth keeps two jobs in flight per stdio or TCP connection:
// while one executes remotely the next is already queued in the
// worker's executor, so the worker never idles for the result
// round-trip. An in-process worker has no round-trip to hide and keeps
// one.
func (w *remoteWorker) PipelineDepth() int { return w.depth }

// pump is the sole reader of the transport: it routes each reply to
// its pending Run, banks strays, and on any receive failure records
// the error and releases every waiter.
func (w *remoteWorker) pump() {
	defer close(w.pumpDone)
	for {
		m, err := w.t.Recv()
		if err != nil {
			w.mu.Lock()
			w.pumpErr = fmt.Errorf("worker %s: recv: %w", w.name, err)
			w.mu.Unlock()
			return
		}
		switch m.Type {
		case MsgHello:
			if err := helloMismatch(m); err != nil {
				w.mu.Lock()
				w.pumpErr = fmt.Errorf("worker %s: %w", w.name, err)
				w.mu.Unlock()
				return
			}
		case MsgPing:
			// Liveness only; receiving it reset the read deadline.
		case MsgResult, MsgError, MsgCancelled:
			w.mu.Lock()
			ch := w.pending[m.ID]
			if ch != nil {
				delete(w.pending, m.ID)
			}
			stray := w.onStray
			w.mu.Unlock()
			switch {
			case ch != nil:
				ch <- m // buffered; never blocks
			case m.Type == MsgResult && stray != nil:
				stray(m.ID, m.Partials)
			}
		default:
			w.mu.Lock()
			w.pumpErr = fmt.Errorf("worker %s: unexpected message type %q", w.name, m.Type)
			w.mu.Unlock()
			return
		}
	}
}

func (w *remoteWorker) Run(job *Job) ([]sim.Partial, error) {
	w.pumpOnce.Do(func() { go w.pump() })
	j := *job
	j.Options.Workers = w.jobWorkers
	ch := make(chan *Message, 1)
	w.mu.Lock()
	if w.pumpErr != nil {
		err := w.pumpErr
		w.mu.Unlock()
		return nil, err
	}
	w.pending[job.ID] = ch
	w.mu.Unlock()
	if err := w.t.Send(&Message{Type: MsgJob, Job: &j}); err != nil {
		w.mu.Lock()
		delete(w.pending, job.ID)
		w.mu.Unlock()
		return nil, fmt.Errorf("worker %s: send: %w", w.name, err)
	}
	var m *Message
	select {
	case m = <-ch:
	case <-w.pumpDone:
		// The pump may have routed the reply just before dying; prefer
		// the delivered result over the connection error.
		select {
		case m = <-ch:
		default:
			w.mu.Lock()
			delete(w.pending, job.ID)
			err := w.pumpErr
			w.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("worker %s: connection closed", w.name)
			}
			return nil, err
		}
	}
	switch m.Type {
	case MsgResult:
		return m.Partials, nil
	case MsgCancelled:
		return nil, ErrJobCancelled
	case MsgError:
		return nil, &jobError{ID: m.ID, Msg: m.Error}
	default:
		return nil, fmt.Errorf("worker %s: unexpected reply type %q", w.name, m.Type)
	}
}

// CancelJob asks the remote worker to abandon the job. Send is
// concurrency-safe, so the cancel can overtake the pending Run's
// receive loop.
func (w *remoteWorker) CancelJob(id int) {
	_ = w.t.Send(&Message{Type: MsgCancel, ID: id})
}

func (w *remoteWorker) Close() error { return w.t.Close() }

// NewInProcessWorker returns a Worker that executes jobs in this
// process with the given parallelism (0 = GOMAXPROCS), one job at a
// time. It is a remoteWorker like every other: serveJobs serves the far
// end of an in-memory link, over which Messages pass by pointer with no
// codec. Close ends its goroutines. It backs the pool's local fallback
// and the process-free pools of tests and benchmarks.
func NewInProcessWorker(name string, workers int) Worker {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	coord, worker := newLink()
	go serveJobs(worker, nil)
	w := newRemoteWorker(name, coord, workers)
	w.depth = 1
	return w
}

// link is one end of the in-memory link under an in-process worker.
// Closing either end closes both: Send fails and Recv reports io.EOF,
// though a message already buffered may still arrive first. Each
// direction buffers 16 messages, far more than one exchange queues (a
// job, its cancel, its one reply), so a Send never waits on a receiver
// that is itself sending.
type link struct {
	in     <-chan *Message
	out    chan<- *Message
	closed chan struct{}
	once   *sync.Once
}

func newLink() (a, b *link) {
	ab, ba := make(chan *Message, 16), make(chan *Message, 16)
	closed, once := make(chan struct{}), new(sync.Once)
	return &link{in: ba, out: ab, closed: closed, once: once},
		&link{in: ab, out: ba, closed: closed, once: once}
}

func (l *link) Send(m *Message) error {
	select {
	case <-l.closed:
		return io.ErrClosedPipe
	case l.out <- m:
		return nil
	}
}

func (l *link) Recv() (*Message, error) {
	select {
	case <-l.closed:
		return nil, io.EOF
	case m := <-l.in:
		return m, nil
	}
}

func (l *link) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}
