package shard

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"herald/internal/sim"
)

// RunSpec is one run submitted to a Pool.
type RunSpec struct {
	// Params and Options configure the simulation exactly as sim.Run
	// would receive them. Adaptive options (TargetHalfWidth, MaxIters)
	// stop the run where the rule binds instead of at the cap.
	Params  sim.ArrayParams
	Options sim.Options
	// Shards is the divisor of guided claiming: a pool slot claims
	// 1/Shards of the run's work left before its horizon, at least one
	// canonical cell. 0 divides by the pool's live serve slots at claim
	// time. Claimed ranges always fall on the canonical cell boundaries,
	// so the Summary is the same for every value.
	Shards int
	// Checkpoint, when non-empty, is the path of the resume log:
	// completed ranges are appended as they finish, and a rerun with
	// the same path and configuration skips them, under any Shards.
	Checkpoint string
}

// RunResult is one run's outcome.
type RunResult struct {
	// Summary is the run's merged result (zero when the pool failed
	// before the run finished).
	Summary sim.Summary
	// Stats reports how the run unfolded.
	Stats Stats
	// Wall is the run's completion offset from the pool's creation —
	// runs share the pool, so per-run spans overlap and, in a
	// RunPipeline, the last run's Wall is the pipeline's total.
	Wall time.Duration
}

// Stats reports how a distributed run unfolded, for observability and
// fault-injection tests.
type Stats struct {
	// Shards counts the run's ranges: those claimed off its cursor plus
	// those restored from the resume log (an adaptive run's claims need
	// not all complete).
	Shards int
	// FromCheckpoint counts ranges restored from the resume log
	// without recomputation.
	FromCheckpoint int
	// Computed counts ranges executed by workers this run.
	Computed int
	// DuplicateResults counts results that arrived for an already
	// banked range and were dropped (exactly-once merging).
	DuplicateResults int
	// WorkerFailures counts workers that died mid-run and had their
	// ranges reassigned — once per worker, however many jobs it held —
	// plus each malformed result dropped and recomputed.
	WorkerFailures int
	// Waves counts the ranges claimed off the run's cursor; a retried
	// range is not counted again.
	Waves int
	// CancelledJobs counts in-flight jobs abandoned after the stopping
	// rule bound.
	CancelledJobs int
	// StoppedEarly reports that the adaptive stopping rule bound below
	// the iteration cap.
	StoppedEarly bool
}

// runState is one run's private state inside the pool's dispatcher.
// Slots claim its canonical cells in contiguous batches off one cursor
// (guided self-scheduling), and its scan folds the banked ranges in
// cell order, so the Summary never depends on who claimed what.
type runState struct {
	idx  int
	spec *RunSpec
	wire WireParams
	// jobOptions are the options every job of this run carries:
	// Iterations raised to the cap, adaptive fields stripped (workers
	// always execute fixed ranges).
	jobOptions sim.Options
	// capIters is the run's iteration cap and cell its canonical cell
	// width. The horizon never starts below floor: the rule's floor
	// for an adaptive run, the cap for a fixed-N run.
	capIters, cell, floor int
	// scan folds the contiguous banked prefix; the run's Summary is
	// read off it.
	scan *sim.StopScan

	// cursor is the first iteration no slot has claimed, and horizon
	// how far claims may run ahead of the fold (see horizonLocked).
	cursor, horizon int
	// retry holds claimed ranges to hand out again.
	retry []sim.Range
	// done holds the banked ranges the scan has not folded yet, keyed
	// by start, restored ones included; folding deletes them.
	done      map[int][]sim.Partial
	malformed map[int]int // malformed results per range start
	cp        *checkpoint

	// progress, when non-nil, observes the run's advance (see
	// RunProgress). It is invoked with the dispatcher lock held and must
	// not block or call back into the pool.
	progress func(RunProgress)
	// jobIDs records every job id issued for this run, so the pool can
	// drop the run's jobIndex entries once it is compacted out.
	jobIDs []int

	finished bool
	// aborted carries the cancellation cause of a run ended by its
	// deadline or caller (Ticket.Cancel, the Submit context). Aborted
	// runs set finished too — the dispatcher treats them as over — but
	// their tickets resolve with this error instead of a Summary.
	aborted error
	// notify is closed exactly once when the run reaches a terminal
	// state (finished or the pool died); Ticket.Wait blocks on it.
	notify   chan struct{}
	notified bool
	summary  sim.Summary
	stats    Stats
	wall     time.Duration
}

// signalTerminal wakes the run's ticket. Callers hold d.mu.
func (r *runState) signalTerminal() {
	if !r.notified {
		r.notified = true
		close(r.notify)
	}
}

// emitProgress reports the run's current advance to its observer.
// Callers hold d.mu.
func (r *runState) emitProgress(final bool) {
	if r.progress == nil {
		return
	}
	pr := RunProgress{Iterations: r.scan.End(), Cap: r.capIters, Final: final}
	if final {
		pr.HalfWidth, pr.Converged = r.summary.HalfWidth, r.summary.Converged
	} else {
		pr.HalfWidth = r.scan.EffectiveHalfWidth()
	}
	r.progress(pr)
}

// newRunState validates one run and restores its checkpoint when
// configured.
func newRunState(idx int, spec *RunSpec, logw io.Writer) (*runState, error) {
	if err := spec.Params.Validate(); err != nil {
		return nil, err
	}
	scan, err := sim.NewStopScan(spec.Options) // validates the options
	if err != nil {
		return nil, err
	}
	wire, err := EncodeParams(spec.Params)
	if err != nil {
		return nil, err
	}
	o := spec.Options
	r := &runState{
		idx:      idx,
		spec:     spec,
		wire:     wire,
		capIters: o.IterationCap(),
		cell:     sim.CellSize(o.IterationCap()),
		floor:    o.Iterations,
		scan:     scan,
		notify:   make(chan struct{}),
	}
	if o.Adaptive() && o.MaxIters == 0 {
		r.floor = 0 // Iterations is the cap; the rule has no floor
	}
	r.jobOptions = o
	r.jobOptions.Iterations = r.capIters
	r.jobOptions.TargetHalfWidth = 0
	r.jobOptions.MaxIters = 0

	if spec.Checkpoint != "" {
		done, cp, err := openCheckpoint(spec.Checkpoint, RunFingerprint(wire, o), spec.Params, r.jobOptions, logw)
		if err != nil {
			return nil, err
		}
		r.done, r.cp = done, cp
		r.stats.FromCheckpoint = len(done)
		r.stats.Shards = len(done)
	}
	if r.done == nil {
		r.done = make(map[int][]sim.Partial)
	}
	return r, nil
}

// sortParts orders a range's cell partials canonically for the stopping
// scan (sim.CheckPartials accepts them in any order).
func sortParts(parts []sim.Partial) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start < parts[j].Start })
}

// horizonLocked returns how far run r's cursor may advance, p being the
// claim divisor. It starts at max(floor, p cells). Once n iterations
// have folded it is the projected stopping point n·(hw/target)², or 2n
// while the rule's safeguards leave hw at +Inf, and never below the
// floor — so a fixed-N run's horizon is its cap. The horizon never
// shrinks, lies on a cell boundary at least one cell past n, and stops
// at the cap. It cannot stall a run: once everything claimed has
// folded without the rule binding, either the floor lies ahead or hw
// exceeds the target, so the horizon lies past the cursor. Callers
// hold d.mu.
func (r *runState) horizonLocked(p int) int {
	if r.horizon == r.capIters {
		return r.horizon
	}
	n := float64(r.scan.End())
	h := float64(p) * float64(r.cell)
	if n > 0 {
		h = 2 * n
		if hw := r.scan.EffectiveHalfWidth(); !math.IsInf(hw, 1) {
			ratio := hw / r.spec.Options.TargetHalfWidth
			h = n * ratio * ratio
		}
	}
	h = math.Min(math.Max(math.Max(h, float64(r.floor)), n+1), float64(r.capIters))
	r.horizon = max(r.horizon, min(int(math.Ceil(h/float64(r.cell)))*r.cell, r.capIters))
	return r.horizon
}

// claimRange takes run r's next range for a pool slot, p being the
// claim divisor: the retried range with the lowest start, else the
// next batch off the cursor — ⌈(horizon − cursor)/(p·cell)⌉ cells, at
// least one, ending before any range restored from the checkpoint. It
// reports false when nothing is retried and the cursor sits at the
// horizon. Callers hold d.mu.
func (r *runState) claimRange(p int) (sim.Range, bool) {
	for len(r.retry) > 0 {
		lo := 0
		for i := range r.retry {
			if r.retry[i].Start < r.retry[lo].Start {
				lo = i
			}
		}
		rg := r.retry[lo]
		r.retry = append(r.retry[:lo], r.retry[lo+1:]...)
		if !r.banked(rg.Start) { // else a stray delivery beat the retry
			return rg, true
		}
	}
	// The cursor steps over restored ranges, folded or still banked.
	r.cursor = max(r.cursor, r.scan.End())
	for parts, ok := r.done[r.cursor]; ok; parts, ok = r.done[r.cursor] {
		r.cursor = parts[len(parts)-1].End
	}
	h := r.horizonLocked(p)
	if r.cursor >= h {
		return sim.Range{}, false
	}
	cells := (h - r.cursor + r.cell - 1) / r.cell
	end := min(r.cursor+((cells-1)/p+1)*r.cell, h)
	for start := range r.done {
		if start > r.cursor && start < end {
			end = start
		}
	}
	rg := sim.Range{Start: r.cursor, End: end}
	r.cursor = end
	r.stats.Waves++
	r.stats.Shards++
	return rg, true
}

// banked reports whether the range starting at start has landed:
// folded, or waiting in done.
func (r *runState) banked(start int) bool {
	_, ok := r.done[start]
	return ok || start < r.scan.End()
}

// requeueLocked hands claimed range rg out again unless the run is
// over, rg has landed, or it is queued already. It is the one path
// back for a dead worker's jobs, malformed results and cancels that
// lost their race. Callers hold d.mu.
func (r *runState) requeueLocked(rg sim.Range) {
	if r.finished || r.banked(rg.Start) {
		return
	}
	for _, q := range r.retry {
		if q == rg {
			return
		}
	}
	r.retry = append(r.retry, rg)
}

// jobKey names a (run, range) pair; job ids map onto it. The run is
// held by pointer so the pool can compact finished runs out of its scan
// list while in-flight replies still resolve.
type jobKey struct {
	r  *runState
	rg sim.Range
}

// assignment tracks one in-flight job for cancellation.
type assignment struct {
	key jobKey
	w   Worker
}

// dispatcher is a Pool's shared state.
type dispatcher struct {
	mu   sync.Mutex
	cond *sync.Cond

	runs  []*runState
	logw  io.Writer
	fatal error
	start time.Time

	// nextIdx numbers runs in submission order (the pipelining
	// priority).
	nextIdx int
	// closing is set by Pool.Close: claims stop, serves retire.
	closing bool

	jobIndex map[int]jobKey      // every job ever issued (strays resolve here)
	assigned map[int]*assignment // in-flight jobs only

	// deadWorker dedupes WorkerFailures: a pipelined worker holds
	// several jobs, and its death must count once, not once per job.
	deadWorker map[Worker]bool
	// joined counts the live serve slots of each worker the source
	// delivered. The pool closes such a worker when its last slot
	// retires after it died, and the rest on Close.
	joined map[Worker]int

	// fallback, when non-nil, is a bounded in-process worker armed the
	// moment the pool drains (every serve goroutine gone) instead of
	// declaring the pool dead or parking runs indefinitely:
	// degraded-mode serving. Armed at most once.
	fallback      Worker
	fallbackArmed bool

	wg sync.WaitGroup // serve goroutines
	// live counts serve goroutines not yet exited: the claim divisor of
	// runs without RunSpec.Shards.
	live int
	// sourceOpen is true while an elastic worker source may still
	// deliver joiners; it keeps a workerless pool waiting instead of
	// declaring it dead.
	sourceOpen bool
	done       chan struct{} // closed when the pool must unwind
	doneOnce   sync.Once
}

func (d *dispatcher) signalDone() { d.doneOnce.Do(func() { close(d.done) }) }

// addWorker plugs a worker into the pool: the coordinator's stray sink
// is installed, and one serve goroutine per pipeline slot starts
// claiming ranges (PipelineDepth slots for workers that support
// double-buffering, one otherwise). joined marks a worker the source
// delivered, which the pool owns.
func (d *dispatcher) addWorker(w Worker, joined bool) {
	d.mu.Lock()
	d.addWorkerLocked(w, joined)
	d.mu.Unlock()
}

// addWorkerLocked is addWorker for callers already holding d.mu (the
// fallback arming paths, which must install the worker atomically with
// observing the drained pool).
func (d *dispatcher) addWorkerLocked(w Worker, joined bool) {
	if sb, ok := w.(strayBanker); ok {
		sb.setStray(d.bankStray)
	}
	depth := 1
	if p, ok := w.(Pipeliner); ok && p.PipelineDepth() > 1 {
		depth = p.PipelineDepth()
	}
	d.live += depth
	if joined {
		d.joined[w] = depth
	}
	for i := 0; i < depth; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serve(w)
			d.exitServe(w)
		}()
	}
}

// armFallbackLocked installs the bounded in-process fallback worker
// on a drained pool, at most once. Callers hold d.mu.
func (d *dispatcher) armFallbackLocked() {
	if d.fallback == nil || d.fallbackArmed || d.closing || d.fatal != nil {
		return
	}
	d.fallbackArmed = true
	fmt.Fprintf(d.logw, "shard: pool drained; arming in-process fallback worker %s\n", d.fallback.Name())
	d.addWorkerLocked(d.fallback, false)
}

// exitServe retires one serve goroutine of w. The last one of a joined
// worker that died closes it and forgets it, so a long-lived pool holds
// no transport of a departed joiner.
func (d *dispatcher) exitServe(w Worker) {
	d.mu.Lock()
	d.live--
	gone := false
	if slots, joined := d.joined[w]; joined {
		d.joined[w] = slots - 1
		if gone = slots == 1 && d.deadWorker[w]; gone {
			delete(d.joined, w)
			delete(d.deadWorker, w)
		}
	}
	d.drainedLocked()
	d.mu.Unlock()
	if gone {
		w.Close()
	}
}

// drainedLocked handles a pool that may have lost its last serve
// goroutine. It first arms the in-process fallback worker (when
// configured), so parked runs keep making progress. Without one, the
// pool declares itself dead, so tickets resolve and future submissions
// fail fast, unless it is already closing or a joiner may still arrive:
// with the source open, runs park and resume when a supervised worker
// rejoins. Callers hold d.mu.
func (d *dispatcher) drainedLocked() {
	if d.live > 0 {
		return
	}
	if d.fallback != nil && !d.fallbackArmed {
		d.armFallbackLocked()
	} else if !d.sourceOpen && !d.closing {
		d.failLocked(fmt.Errorf("shard: no live workers remain"))
	}
}

// jobSeq issues process-unique job ids. Uniqueness across coordinators
// matters because workers outlive runs: a cancel that loses its race
// to an already-sent result leaves a tombstone for that id on the
// worker, and a later coordinator reusing the id would see its job
// falsely answered as cancelled.
var jobSeq atomic.Int64

// serve drives one worker: claim a job, run it, bank the result; on
// worker death requeue the range and retire.
func (d *dispatcher) serve(w Worker) {
	for {
		job, key, ok := d.claim(w)
		if !ok {
			return
		}
		parts, err := w.Run(job)
		switch {
		case err == nil:
			d.bank(key, job.ID, parts, true)
		case err == ErrJobCancelled:
			d.cancelled(key, job.ID)
		default:
			if je, isJob := err.(*jobError); isJob {
				// The worker is alive but rejected the job: rerunning
				// elsewhere would fail identically, so the pool is dead.
				d.fail(job.ID, fmt.Errorf("shard: %w", je))
				return
			}
			d.mu.Lock()
			r := key.r
			if !d.deadWorker[w] {
				d.deadWorker[w] = true
				r.stats.WorkerFailures++
			}
			delete(d.assigned, job.ID)
			r.requeueLocked(key.rg)
			fmt.Fprintf(d.logw, "shard: worker %s died (%v); run %d range [%d,%d) reassigned\n",
				w.Name(), err, r.idx, key.rg.Start, key.rg.End)
			d.cond.Broadcast()
			d.mu.Unlock()
			return
		}
	}
}

// claim blocks until some run has a range to hand out, or the pool
// unwinds. Runs are scanned in submission order, which is what
// pipelines them: run k+1 work is only taken when run k has nothing
// to retry and its cursor sits at its horizon. The claim divisor is
// the run's Shards, else the pool's live slots right now. An idle
// serve parks here until a submission, a requeue or a bank brings
// work.
func (d *dispatcher) claim(w Worker) (*Job, jobKey, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.fatal != nil || d.closing {
			return nil, jobKey{}, false
		}
		for _, r := range d.runs {
			if r.finished {
				continue
			}
			p := r.spec.Shards
			if p < 1 {
				p = d.live
			}
			rg, ok := r.claimRange(p)
			if !ok {
				continue
			}
			jid := int(jobSeq.Add(1))
			key := jobKey{r: r, rg: rg}
			d.jobIndex[jid] = key
			d.assigned[jid] = &assignment{key: key, w: w}
			r.jobIDs = append(r.jobIDs, jid)
			return &Job{ID: jid, Start: rg.Start, End: rg.End, Params: r.wire, Options: r.jobOptions}, key, true
		}
		d.cond.Wait()
	}
}

// maxMalformedPerShard bounds how often a range's results may fail
// validation before the run is declared dead — without it, a lone
// worker with a deterministic defect (e.g. a version-skewed binary
// whose seeding changed) would recompute the same range forever.
const maxMalformedPerShard = 3

// bank records a completed range exactly once: a result for a range
// the scan has folded or that waits in done is a duplicate, counted
// and dropped. fromRun marks results produced by this dispatcher's own
// claim (whose assignment ends here) versus stray deliveries.
func (d *dispatcher) bank(key jobKey, jobID int, parts []sim.Partial, fromRun bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, rg := key.r, key.rg
	if fromRun {
		delete(d.assigned, jobID)
	}
	if r.finished {
		// A run that already finished no longer needs this range (a
		// cancel lost the race, or a reassigned range was answered
		// twice).
		fmt.Fprintf(d.logw, "shard: dropping late result for finished run %d range [%d,%d)\n", r.idx, rg.Start, rg.End)
		d.cond.Broadcast()
		return
	}
	if r.banked(rg.Start) {
		r.stats.DuplicateResults++
		fmt.Fprintf(d.logw, "shard: dropping duplicate result for range [%d,%d)\n", rg.Start, rg.End)
		d.cond.Broadcast()
		return
	}
	if err := sim.CheckPartials(r.spec.Params, r.jobOptions, rg.Start, rg.End, parts); err != nil {
		// A malformed result (one the run's scan would refuse) is
		// dropped and the range recomputed, like a worker death — up
		// to a cap, beyond which the defect is clearly deterministic
		// and the run is dead.
		if r.malformed == nil {
			r.malformed = make(map[int]int)
		}
		r.malformed[rg.Start]++
		r.stats.WorkerFailures++
		if r.malformed[rg.Start] >= maxMalformedPerShard {
			d.failLocked(fmt.Errorf("shard: range [%d,%d) returned %d malformed results; aborting (worker defect?)",
				rg.Start, rg.End, r.malformed[rg.Start]))
			return
		}
		fmt.Fprintf(d.logw, "shard: dropping malformed result for range [%d,%d): %v\n", rg.Start, rg.End, err)
		r.requeueLocked(rg)
		d.cond.Broadcast()
		return
	}
	sortParts(parts)
	r.done[rg.Start] = parts
	r.stats.Computed++
	if err := r.cp.record(parts); err != nil {
		d.failLocked(err)
		return
	}
	d.advanceLocked(r)
	d.cond.Broadcast()
}

// advanceLocked folds a run's contiguous banked prefix into its scan
// cell by cell as ranges land (completion-order merging: partials fold
// as soon as the prefix reaches them, not at a barrier) and deletes
// each range once folded. The run finishes at the first boundary where
// the stopping rule binds — its in-flight jobs are then cancelled — or
// when the prefix reaches the cap. Callers hold d.mu.
func (d *dispatcher) advanceLocked(r *runState) {
	moved := false
	for {
		start := r.scan.End()
		parts, ok := r.done[start]
		if !ok {
			break
		}
		delete(r.done, start)
		for i := range parts {
			if r.scan.Feed(&parts[i]) {
				r.stats.StoppedEarly = true
				d.cancelJobsLocked(r)
				d.finishLocked(r)
				return
			}
		}
		moved = true
	}
	if r.scan.End() == r.capIters {
		d.finishLocked(r)
	} else if moved {
		r.emitProgress(false)
	}
}

// cancelJobsLocked cancels the in-flight jobs of run r, or of every run
// when r is nil: best-effort and asynchronously, so the workers stay
// usable. Their late answers are absorbed by the finished-run guards.
// Callers hold d.mu.
func (d *dispatcher) cancelJobsLocked(r *runState) {
	for jid, a := range d.assigned {
		if r != nil && a.key.r != r {
			continue
		}
		if c, ok := a.w.(JobCanceler); ok {
			go c.CancelJob(jid)
		}
	}
}

// finishLocked resolves a run with the Summary of its folded prefix.
// Callers hold d.mu.
func (d *dispatcher) finishLocked(r *runState) {
	r.summary = r.scan.Summary()
	r.wall = time.Since(d.start)
	r.emitProgress(true)
	d.endLocked(r)
}

// endLocked moves a run to its terminal state. Its retries, partials
// and checkpoint are released — every later path checks r.finished
// before it touches them, and closing the checkpoint here keeps a
// long-lived pool's fd count flat — and its ticket wakes. Callers hold
// d.mu.
func (d *dispatcher) endLocked(r *runState) {
	r.finished = true
	r.retry = nil
	r.done = nil
	r.cp.close()
	r.cp = nil
	r.signalTerminal()
	d.cond.Broadcast()
}

// abortRun ends a run before its natural completion: retries are
// dropped, in-flight jobs are cancelled through the protocol's v2
// cancel path, and the ticket resolves with cause. Idempotent; a run
// that already finished is left alone.
func (d *dispatcher) abortRun(r *runState, cause error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r.finished {
		return
	}
	r.aborted = cause
	d.cancelJobsLocked(r)
	fmt.Fprintf(d.logw, "shard: run %d aborted: %v\n", r.idx, cause)
	d.endLocked(r)
}

// cancelled accounts for a job a worker abandoned on request. The
// worker stays in the pool. Cancels are only sent once the run is
// over, but one that raced a live run must not lose its range.
func (d *dispatcher) cancelled(key jobKey, jobID int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.assigned, jobID)
	key.r.stats.CancelledJobs++
	key.r.requeueLocked(key.rg)
	d.cond.Broadcast()
}

// bankStray records a result that arrived outside the request/response
// pairing (a re-delivery or a late answer from a presumed-dead
// worker), resolving the job id against every assignment ever issued.
func (d *dispatcher) bankStray(jobID int, parts []sim.Partial) {
	d.mu.Lock()
	key, ok := d.jobIndex[jobID]
	d.mu.Unlock()
	if !ok {
		fmt.Fprintf(d.logw, "shard: dropping stray result for unknown job %d\n", jobID)
		return
	}
	d.bank(key, jobID, parts, false)
}

func (d *dispatcher) fail(jobID int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.assigned, jobID)
	d.failLocked(err)
}

func (d *dispatcher) failLocked(err error) {
	if d.fatal == nil {
		d.fatal = err
	}
	d.signalDone()
	d.cond.Broadcast()
}
