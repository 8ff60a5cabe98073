package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// RunProgress is one observation of a run's advance, delivered to the
// progress callback passed to Pool.Submit. Every run, fixed-N or
// adaptive, folds its contiguous banked prefix of ranges as they land,
// and an observation follows each advance of that prefix; the final
// observation carries the run's Summary numbers.
type RunProgress struct {
	// Iterations folded so far: the banked prefix, cell-aligned and
	// monotone non-decreasing across observations.
	Iterations int
	// Cap is the run's iteration ceiling (Options.IterationCap).
	Cap int
	// HalfWidth is the half-width the stopping rule compares with the
	// target (sim.StopScan.EffectiveHalfWidth): the one the Summary
	// reports, +Inf while the rule's floors are unmet and for every
	// non-final observation of a fixed-N run. The final observation
	// carries the Summary's half-width; availserve sends +Inf as an
	// absent half_width.
	HalfWidth float64
	// Converged is only meaningful on the final observation.
	Converged bool
	// Final marks the last observation of the run: the run finished and
	// its Ticket is resolvable.
	Final bool
}

// Pool is the shard execution engine: a dispatcher over one worker set
// — local processes, remote dials, elastic joiners — that accepts runs
// for as long as it lives. Runs are prioritized in submission order: a
// worker takes run k+1 work only when run k has nothing to hand out, so
// a later run's ranges start while an earlier run drains. Every run's
// Summary is bit-identical to executing it alone. RunPipeline is the
// one-call form for a fixed list of runs.
//
// The zero value is not usable; construct with NewPool.
type Pool struct {
	d         *dispatcher
	intake    sync.WaitGroup
	closeOnce sync.Once
}

// PoolOptions tunes a pool beyond its worker set. A nil *PoolOptions
// means the zero value.
type PoolOptions struct {
	// Log receives progress warnings (torn checkpoints, dead workers,
	// dropped results). Nil discards them.
	Log io.Writer
	// LocalFallback, when positive, arms degraded-mode execution: if
	// the pool ever drains completely (every worker dead or departed),
	// a bounded in-process worker with this parallelism joins so parked
	// runs keep progressing instead of waiting for a rejoiner the
	// deadline may outlast. The fallback stays in the pool once armed;
	// rejoining supervised workers simply take ranges alongside it.
	LocalFallback int
}

// NewPool builds a pool over the initial workers plus an optional
// elastic source: every Worker delivered on source joins the pool and
// starts claiming ranges of every run, submitted before or after it.
// While source is open, a pool whose last worker died parks its runs
// until a joiner arrives instead of failing them. The initial workers
// remain the caller's to close — after Close returns; workers delivered
// by source are closed by the pool.
func NewPool(workers []Worker, source <-chan Worker, opts *PoolOptions) (*Pool, error) {
	var o PoolOptions
	if opts != nil {
		o = *opts
	}
	if len(workers) == 0 && source == nil && o.LocalFallback <= 0 {
		return nil, fmt.Errorf("shard: no workers")
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	d := &dispatcher{
		logw:       o.Log,
		start:      time.Now(),
		assigned:   make(map[int]*assignment),
		deadWorker: make(map[Worker]bool),
		joined:     make(map[Worker]int),
		sourceOpen: source != nil,
		done:       make(chan struct{}),
	}
	if o.LocalFallback > 0 {
		d.fallback = NewInProcessWorker("local-fallback", o.LocalFallback)
	}
	d.cond = sync.NewCond(&d.mu)
	p := &Pool{d: d}
	for _, w := range workers {
		d.addWorker(w, false)
	}
	// The intake goroutine folds joining workers into the pool until
	// the source closes or the pool unwinds.
	if source != nil {
		p.intake.Add(1)
		go func() {
			defer p.intake.Done()
			for {
				select {
				case w, ok := <-source:
					if !ok {
						d.mu.Lock()
						d.sourceOpen = false
						d.drainedLocked()
						d.mu.Unlock()
						return
					}
					d.addWorker(w, true)
				case <-d.done:
					d.mu.Lock()
					d.sourceOpen = false
					d.mu.Unlock()
					return
				}
			}
		}()
	}
	return p, nil
}

// RunPipeline executes a fixed list of runs on a pool built over
// workers, waits for every one, and closes the pool. A run refused by
// Submit, or failed by a worker's job-scoped error or a failed
// checkpoint write, fails alone: the other runs still finish. The
// returned slice always has one RunResult per spec (zero Summary for a
// run that failed); the error is the first failure in spec order, nil
// when every run completed. The workers remain the caller's to close.
func RunPipeline(specs []RunSpec, workers []Worker, opts *PoolOptions) ([]RunResult, error) {
	out := make([]RunResult, len(specs))
	if len(specs) == 0 {
		return out, nil
	}
	pool, err := NewPool(workers, nil, opts)
	if err != nil {
		return out, err
	}
	defer pool.Close()
	tickets := make([]*Ticket, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		tickets[i], errs[i] = pool.Submit(context.Background(), spec, nil)
	}
	for i, tk := range tickets {
		if tk != nil {
			out[i], errs[i] = tk.Wait()
		}
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Ticket is a handle on one submitted run.
type Ticket struct {
	d *dispatcher
	r *runState
}

// Submit resolves one run through sim.Resolve, so a run a worker would
// refuse is refused here, before a checkpoint opens or a job leaves. It
// then restores the run's checkpoint and opens it to the pool's slots,
// which claim its cells in guided batches off the run's cursor.
// Submission order is the pipelining priority. When ctx ends before the
// run does, the run is aborted — retries dropped, in-flight jobs
// cancelled through the protocol's cancel path — and the ticket
// resolves with an error wrapping the context's cause; this is how a
// client disconnect or a per-request deadline reaches the shard wire.
// The pool itself stays usable.
//
// progress, when non-nil, observes the run's advance; it is invoked
// with the pool's dispatch lock held and must return quickly without
// blocking or calling back into the pool (hand observations to a
// channel or buffer).
func (p *Pool) Submit(ctx context.Context, spec RunSpec, progress func(RunProgress)) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("shard: run cancelled before submit: %w", err)
	}
	d := p.d
	d.mu.Lock()
	if err := p.submitErrLocked(); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	idx := d.nextIdx
	d.nextIdx++
	d.mu.Unlock()

	// Validation and checkpoint restore run outside the dispatch lock
	// (they may read files).
	r, err := newRunState(idx, &spec, d.logw)
	if err != nil {
		return nil, err
	}
	r.progress = progress

	d.mu.Lock()
	if err := p.submitErrLocked(); err != nil {
		d.mu.Unlock()
		r.cp.close()
		return nil, err
	}
	d.compactLocked()
	if d.live == 0 {
		// Submitting to an empty pool (drained, or elastic and not yet
		// populated): degraded mode starts now rather than parking the
		// new run until a joiner happens by. No-op without a fallback.
		d.armFallbackLocked()
	}
	// Insert in index order: concurrent submits may reach this point
	// out of turn, and the scan order is the priority order.
	pos := len(d.runs)
	for pos > 0 && d.runs[pos-1].idx > r.idx {
		pos--
	}
	d.runs = append(d.runs, nil)
	copy(d.runs[pos+1:], d.runs[pos:])
	d.runs[pos] = r
	// A run fully restored from its checkpoint finishes before any
	// worker is consulted.
	d.advanceLocked(r)
	d.cond.Broadcast()
	d.mu.Unlock()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				d.abortRun(r, fmt.Errorf("shard: run cancelled: %w", context.Cause(ctx)))
			case <-r.notify:
			}
		}()
	}
	return &Ticket{d: d, r: r}, nil
}

// submitErrLocked reports why the pool can take no more runs, if it
// cannot. Callers hold d.mu.
func (p *Pool) submitErrLocked() error {
	d := p.d
	if d.closing {
		return errPoolClosed
	}
	if d.fatal != nil {
		return fmt.Errorf("shard: pool dead: %w", d.fatal)
	}
	return nil
}

// compactLocked drops finished runs from the scan list (their tickets
// hold the results) so a long-lived pool's dispatch scan stays as short
// as its active run set. Callers hold d.mu.
func (d *dispatcher) compactLocked() {
	kept := d.runs[:0]
	for _, r := range d.runs {
		if !r.finished {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(d.runs); i++ {
		d.runs[i] = nil
	}
	d.runs = kept
}

// Err reports the pool's fatal condition, nil while it is usable.
func (p *Pool) Err() error {
	p.d.mu.Lock()
	defer p.d.mu.Unlock()
	return p.d.fatal
}

// Cancel aborts the run if it has not finished: retries are
// dropped, in-flight jobs are cancelled on their workers, and Wait
// returns an error. Cancelling a finished run is a no-op. The pool
// stays usable.
func (t *Ticket) Cancel() {
	t.d.abortRun(t.r, fmt.Errorf("shard: run cancelled by caller"))
}

// Wait blocks until the run ends and returns its result with final
// Stats. A nil error means the run finished and Summary is its merged
// result, bit-identical to running it alone; otherwise the error says
// why the run ended: a cancel, a job-scoped error, a failed checkpoint
// write, the pool's death (its error) or Close ("shard: pool closed").
// Wait is safe to call from several goroutines.
func (t *Ticket) Wait() (RunResult, error) {
	r := t.r
	<-r.notify
	return RunResult{Summary: r.summary, Stats: r.stats, Wall: r.wall}, r.aborted
}

// PoolHealth is a point-in-time snapshot of a pool's capacity to make
// progress, for readiness probes.
type PoolHealth struct {
	// LiveSlots counts serve goroutines currently claiming work (a
	// pipelined worker contributes its depth).
	LiveSlots int
	// SourceOpen reports that an elastic worker source may still
	// deliver joiners (a drained pool parks runs instead of failing).
	SourceOpen bool
	// FallbackArmed reports that the bounded in-process fallback worker
	// joined the pool after a drain (degraded mode).
	FallbackArmed bool
	// ActiveRuns counts submitted runs not yet finished.
	ActiveRuns int
	// Err is the pool's fatal condition, nil while it is usable.
	Err error
}

// Ready reports whether the pool can currently take a run and advance
// it: it is alive and has (or can still gain) execution capacity.
func (h PoolHealth) Ready() bool {
	return h.Err == nil && (h.LiveSlots > 0 || h.SourceOpen)
}

// Health snapshots the pool's liveness and capacity.
func (p *Pool) Health() PoolHealth {
	d := p.d
	d.mu.Lock()
	defer d.mu.Unlock()
	h := PoolHealth{
		LiveSlots:     d.live,
		SourceOpen:    d.sourceOpen,
		FallbackArmed: d.fallbackArmed,
		Err:           d.fatal,
	}
	if d.closing && h.Err == nil {
		h.Err = errPoolClosed
	}
	for _, r := range d.runs {
		if !r.finished {
			h.ActiveRuns++
		}
	}
	return h
}

// errPoolClosed is the error of every run a Close ends and of every
// Submit after it.
var errPoolClosed = errors.New("shard: pool closed")

// Close shuts the pool down: no further submissions are accepted,
// every unfinished run ends with "shard: pool closed" (its in-flight
// jobs cancelled best-effort and its checkpoint released), serve
// goroutines retire, and joined workers and the local fallback are
// closed. Close is idempotent; the initial workers are the caller's to
// close afterwards.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		d := p.d
		d.mu.Lock()
		d.closing = true
		for _, r := range d.runs {
			d.abortLocked(r, errPoolClosed)
		}
		d.mu.Unlock()
		d.signalDone()
		d.cond.Broadcast()
		p.intake.Wait()
		d.wg.Wait()
		for w := range d.joined {
			w.Close()
		}
		if d.fallback != nil {
			d.fallback.Close()
		}
	})
	return nil
}
