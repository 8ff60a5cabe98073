package shard

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"herald/internal/sim"
)

// RunSpec is one run submitted to a Pool.
type RunSpec struct {
	// Params and Options configure the simulation exactly as sim.Run
	// would receive them. A fixed-N run is handed out as one wave;
	// adaptive options (TargetHalfWidth, MaxIters) make the waves grow
	// until the stopping rule binds.
	Params  sim.ArrayParams
	Options sim.Options
	// Shards is the number of contiguous iteration shards per wave
	// (default: one per initial pool slot, with an adaptive run's waves
	// split in proportion to advertised capacities). Shard boundaries
	// always fall on the canonical cell boundaries, and the count is
	// capped at the cell count, so over-asking is safe.
	Shards int
	// Checkpoint, when non-empty, is the path of the resume log:
	// completed shards are appended as they finish, and a rerun with
	// the same path and configuration skips them.
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
	// Shards is the partition size of the run (for adaptive runs, the
	// full wave plan's shard count — not all of which necessarily ran).
	Shards int
	// FromCheckpoint counts shards restored from the resume log
	// without recomputation.
	FromCheckpoint int
	// Computed counts shards executed by workers this run.
	Computed int
	// DuplicateResults counts shard results that arrived for an
	// already-completed shard and were dropped (exactly-once merging).
	DuplicateResults int
	// WorkerFailures counts workers that died mid-run and had their
	// shards reassigned — once per worker, however many jobs it held —
	// plus each malformed result dropped and recomputed.
	WorkerFailures int
	// Waves counts the handout waves opened (1 for fixed-N runs).
	Waves int
	// CancelledJobs counts in-flight jobs abandoned after the stopping
	// rule bound.
	CancelledJobs int
	// StoppedEarly reports that the adaptive stopping rule bound below
	// the iteration cap.
	StoppedEarly bool
}

// adaptivePartition returns the shard ranges and the per-wave shard-id
// lists of a run. Waves grow the handed-out iteration prefix of
// [0, capIters) geometrically — the first wave covers at least the
// rule's floor and one shard per pool slot, every later wave doubles
// the cumulative cell count — so the work spent past the stopping
// boundary is bounded by the prefix already proven necessary. Each
// wave is split into at most shardsPerWave contiguous shards along the
// cap run's canonical cells, so every shard's partials are exactly the
// cells a single-process run would produce. A fixed-N run's floor is
// its cap: one wave over the whole run.
//
// weights, when non-nil, are the pool slots' advertised capacities
// (speed-aware wave sizing): each wave's cells are split proportionally
// to them, sorted descending so the largest shard carries the lowest id
// and is handed out first. A heterogeneous pool then finishes each wave
// roughly together — shard sizes match throughput — while the merge
// stays bit-identical, because shards still tile the same canonical
// cells in the same order whatever the split. nil (or uniform) weights
// reproduce the even split.
func adaptivePartition(capIters, floorIters, shardsPerWave int, weights []int) (shards []sim.Range, waves [][]int) {
	cells := sim.Cells(capIters)
	cs := sim.CellSize(capIters)
	if shardsPerWave < 1 {
		shardsPerWave = 1
	}
	if len(weights) == shardsPerWave && shardsPerWave > 1 {
		w := append([]int(nil), weights...)
		sort.Sort(sort.Reverse(sort.IntSlice(w)))
		if w[0] != w[len(w)-1] && w[len(w)-1] > 0 {
			weights = w
		} else {
			weights = nil // uniform or degenerate: even split
		}
	} else {
		weights = nil
	}
	first := shardsPerWave
	if fc := (floorIters + cs - 1) / cs; fc > first {
		first = fc
	}
	if first > len(cells) {
		first = len(cells)
	}
	for cum := 0; cum < len(cells); {
		next := first
		if cum > 0 {
			next = 2 * cum
		}
		if next > len(cells) {
			next = len(cells)
		}
		n := next - cum
		k := shardsPerWave
		if k > n {
			k = n
		}
		ids := make([]int, 0, k)
		wsum := 0
		if weights != nil {
			for _, wv := range weights[:k] {
				wsum += wv
			}
		}
		pref := 0
		for s := 0; s < k; s++ {
			var lo, hi int
			if weights == nil {
				lo = cum + s*n/k
				hi = cum + (s+1)*n/k
			} else {
				lo = cum + pref*n/wsum
				pref += weights[s]
				hi = cum + pref*n/wsum
			}
			if lo == hi {
				continue
			}
			ids = append(ids, len(shards))
			shards = append(shards, sim.Range{Start: cells[lo].Start, End: cells[hi-1].End})
		}
		waves = append(waves, ids)
		cum = next
	}
	return shards, waves
}

// poolCapacities maps the initial worker pool to wave-sizing weights:
// the advertised capacity where a worker reports one, one slot
// otherwise.
func poolCapacities(workers []Worker) []int {
	caps := make([]int, 0, len(workers))
	for _, w := range workers {
		c := 1
		if cr, ok := w.(CapacityReporter); ok && cr.Capacity() > 0 {
			c = cr.Capacity()
		}
		caps = append(caps, c)
	}
	return caps
}

// runState is one run's private state inside the pool's dispatcher.
type runState struct {
	idx  int
	spec *RunSpec
	wire WireParams
	// jobOptions are the options every job of this run carries:
	// Iterations raised to the cap, adaptive fields stripped (workers
	// always execute fixed ranges).
	jobOptions sim.Options
	capIters   int
	// scan folds the contiguous banked prefix; the run's Summary is
	// read off it.
	scan *sim.StopScan

	shards   []sim.Range
	waves    [][]int // shard ids per handout wave
	nextWave int
	queue    []int // pending shard ids
	inflight int

	// done holds every banked shard id; a shard's partials are
	// released (set nil) once the scan folds them.
	done      map[int][]sim.Partial
	malformed map[int]int
	cp        *checkpoint

	// prefixShard is the next shard id whose cells the scan has not
	// folded yet.
	prefixShard int

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
	pr := RunProgress{Iterations: r.scan.End(), Cap: r.capIters, Waves: r.stats.Waves, Final: final}
	if final {
		pr.HalfWidth, pr.Converged = r.summary.HalfWidth, r.summary.Converged
	} else {
		pr.HalfWidth = r.scan.EffectiveHalfWidth()
	}
	r.progress(pr)
}

// newRunState validates and partitions one run, restoring its
// checkpoint when configured. caps are the initial pool's wave-sizing
// weights (one entry per worker); an explicit spec.Shards overrides
// both the count and the proportional split with even shards.
func newRunState(idx int, spec *RunSpec, caps []int, logw io.Writer) (*runState, error) {
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
	r := &runState{
		idx:      idx,
		spec:     spec,
		wire:     wire,
		capIters: spec.Options.IterationCap(),
		scan:     scan,
		notify:   make(chan struct{}),
	}
	shardCount := spec.Shards
	if shardCount < 1 {
		shardCount = len(caps)
	}
	// A fixed-N run is one evenly split wave. An adaptive run's waves
	// grow from the rule's floor, split in proportion to the pool's
	// capacities unless spec.Shards fixes the count.
	floor, weights := r.capIters, []int(nil)
	if spec.Options.Adaptive() {
		floor = 0
		if spec.Options.MaxIters > 0 {
			floor = spec.Options.Iterations
		}
		if spec.Shards < 1 {
			weights = caps
		}
	}
	r.shards, r.waves = adaptivePartition(r.capIters, floor, shardCount, weights)
	r.stats.Shards = len(r.shards)
	r.jobOptions = spec.Options
	r.jobOptions.Iterations = r.capIters
	r.jobOptions.TargetHalfWidth = 0
	r.jobOptions.MaxIters = 0

	if spec.Checkpoint != "" {
		fp := RunFingerprint(wire, spec.Options)
		done, cp, err := openCheckpoint(spec.Checkpoint, fp, r.shards, spec.Params, r.jobOptions, logw)
		if err != nil {
			return nil, err
		}
		r.done, r.cp = done, cp
		r.stats.FromCheckpoint = len(done)
		for id := range done {
			sortParts(done[id])
		}
	}
	if r.done == nil {
		r.done = make(map[int][]sim.Partial)
	}
	return r, nil
}

// sortParts orders a shard's cell partials canonically for the stopping
// scan (sim.CheckPartials accepts them in any order).
func sortParts(parts []sim.Partial) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start < parts[j].Start })
}

// jobKey names a (run, shard) pair; job ids map onto it. The run is
// held by pointer so the pool can compact finished runs out of its scan
// list while in-flight replies still resolve.
type jobKey struct {
	r     *runState
	shard int
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

	// caps snapshots the initial pool's wave-sizing weights; runs
	// submitted later reuse them (joiners do not reshape waves).
	caps []int
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

	// fallback, when non-nil, is a bounded in-process worker armed the
	// moment the pool drains (every serve goroutine gone) instead of
	// declaring the pool dead or parking runs indefinitely:
	// degraded-mode serving. Armed at most once.
	fallback      Worker
	fallbackArmed bool

	wg   sync.WaitGroup // serve goroutines
	live int            // serve goroutines not yet exited
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
// claiming shards (PipelineDepth slots for workers that support
// double-buffering, one otherwise).
func (d *dispatcher) addWorker(w Worker) {
	d.mu.Lock()
	d.addWorkerLocked(w)
	d.mu.Unlock()
}

// addWorkerLocked is addWorker for callers already holding d.mu (the
// fallback arming paths, which must install the worker atomically with
// observing the drained pool).
func (d *dispatcher) addWorkerLocked(w Worker) {
	if sb, ok := w.(strayBanker); ok {
		sb.setStray(d.bankStray)
	}
	depth := 1
	if p, ok := w.(Pipeliner); ok && p.PipelineDepth() > 1 {
		depth = p.PipelineDepth()
	}
	d.live += depth
	for i := 0; i < depth; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serve(w)
			d.exitServe()
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
	d.addWorkerLocked(d.fallback)
}

// exitServe retires one serve goroutine.
func (d *dispatcher) exitServe() {
	d.mu.Lock()
	d.live--
	d.drainedLocked()
	d.mu.Unlock()
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
// worker death requeue the shard and retire.
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
				d.fail(key, job.ID, fmt.Errorf("shard: %w", je))
				return
			}
			d.mu.Lock()
			r := key.r
			if !d.deadWorker[w] {
				d.deadWorker[w] = true
				r.stats.WorkerFailures++
			}
			r.inflight--
			delete(d.assigned, job.ID)
			if _, alreadyDone := r.done[key.shard]; !alreadyDone && !r.finished && !queued(r.queue, key.shard) {
				r.queue = append(r.queue, key.shard)
			}
			fmt.Fprintf(d.logw, "shard: worker %s died (%v); run %d shard %d reassigned\n", w.Name(), err, r.idx, key.shard)
			d.cond.Broadcast()
			d.mu.Unlock()
			return
		}
	}
}

// claim blocks until a shard of some run is available, or the pool
// unwinds. Runs are scanned in submission order, which is what
// pipelines them: run k+1 work is only taken when run k has nothing
// queued right now. An idle serve parks here until a submission or a
// requeue brings work.
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
			d.refillLocked(r)
			if len(r.queue) == 0 {
				continue
			}
			min := 0
			for i := range r.queue {
				if r.queue[i] < r.queue[min] {
					min = i
				}
			}
			id := r.queue[min]
			r.queue = append(r.queue[:min], r.queue[min+1:]...)
			r.inflight++
			jid := int(jobSeq.Add(1))
			key := jobKey{r: r, shard: id}
			d.jobIndex[jid] = key
			d.assigned[jid] = &assignment{key: key, w: w}
			r.jobIDs = append(r.jobIDs, jid)
			rg := r.shards[id]
			return &Job{ID: jid, Start: rg.Start, End: rg.End, Params: r.wire, Options: r.jobOptions}, key, true
		}
		d.cond.Wait()
	}
}

// refillLocked opens the next wave(s) of an unfinished run whose
// current wave fully banked. Callers hold d.mu.
func (d *dispatcher) refillLocked(r *runState) {
	for len(r.queue) == 0 && r.inflight == 0 && !r.finished && r.nextWave < len(r.waves) {
		for _, id := range r.waves[r.nextWave] {
			if _, ok := r.done[id]; !ok {
				r.queue = append(r.queue, id)
			}
		}
		r.nextWave++
		r.stats.Waves++
	}
}

// maxMalformedPerShard bounds how often a shard's results may fail
// validation before the run is declared dead — without it, a lone
// worker with a deterministic defect (e.g. a version-skewed binary
// whose seeding changed) would recompute the same shard forever.
const maxMalformedPerShard = 3

// bank records a completed shard exactly once; duplicates are counted
// and dropped. fromRun marks results produced by this dispatcher's own
// claim (to balance the inflight counter) versus stray deliveries.
func (d *dispatcher) bank(key jobKey, jobID int, parts []sim.Partial, fromRun bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := key.r
	if fromRun {
		r.inflight--
		delete(d.assigned, jobID)
	}
	if key.shard < 0 || key.shard >= len(r.shards) {
		fmt.Fprintf(d.logw, "shard: dropping result for unknown shard %d of run %d\n", key.shard, r.idx)
		d.cond.Broadcast()
		return
	}
	if r.finished {
		// A run that already finished no longer needs this shard (a
		// cancel lost the race, or a reassigned shard was answered
		// twice).
		fmt.Fprintf(d.logw, "shard: dropping late result for finished run %d shard %d\n", r.idx, key.shard)
		d.cond.Broadcast()
		return
	}
	if _, dup := r.done[key.shard]; dup {
		r.stats.DuplicateResults++
		fmt.Fprintf(d.logw, "shard: dropping duplicate result for shard %d\n", key.shard)
		d.cond.Broadcast()
		return
	}
	rg := r.shards[key.shard]
	if err := sim.CheckPartials(r.spec.Params, r.jobOptions, rg.Start, rg.End, parts); err != nil {
		// A malformed result (one the run's scan would refuse) is
		// dropped and the shard recomputed, like a worker death — up
		// to a cap, beyond which the defect is clearly deterministic
		// and the run is dead.
		if r.malformed == nil {
			r.malformed = make(map[int]int)
		}
		r.malformed[key.shard]++
		r.stats.WorkerFailures++
		if r.malformed[key.shard] >= maxMalformedPerShard {
			d.failLocked(fmt.Errorf("shard: shard %d returned %d malformed results; aborting (worker defect?)",
				key.shard, r.malformed[key.shard]))
			return
		}
		fmt.Fprintf(d.logw, "shard: dropping malformed result for shard %d: %v\n", key.shard, err)
		if !queued(r.queue, key.shard) {
			r.queue = append(r.queue, key.shard)
		}
		d.cond.Broadcast()
		return
	}
	sortParts(parts)
	r.done[key.shard] = parts
	r.stats.Computed++
	// Remove the shard from the queue if a stray delivery beat a
	// pending reassignment to it.
	for i := range r.queue {
		if r.queue[i] == key.shard {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			break
		}
	}
	if err := r.cp.record(key.shard, parts); err != nil {
		d.failLocked(err)
		return
	}
	d.advanceLocked(r)
	d.cond.Broadcast()
}

// advanceLocked folds a run's contiguous banked prefix into its scan
// cell by cell as shards land (completion-order merging: partials fold
// as soon as the prefix reaches them, not at a barrier) and releases
// each shard's partials once folded. The run finishes at the first
// boundary where the stopping rule binds — its in-flight jobs are then
// cancelled — or when the prefix reaches the cap. Callers hold d.mu.
func (d *dispatcher) advanceLocked(r *runState) {
	moved := false
	for r.prefixShard < len(r.shards) {
		parts, ok := r.done[r.prefixShard]
		if !ok {
			break
		}
		for i := range parts {
			if r.scan.Feed(&parts[i]) {
				r.stats.StoppedEarly = true
				d.cancelJobsLocked(r)
				d.finishLocked(r)
				return
			}
		}
		r.done[r.prefixShard] = nil
		r.prefixShard++
		moved = true
	}
	if r.prefixShard == len(r.shards) {
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

// endLocked moves a run to its terminal state. Its queue, partials
// and checkpoint are released — every later path checks r.finished
// before it touches them, and closing the checkpoint here keeps a
// long-lived pool's fd count flat — and its ticket wakes. Callers hold
// d.mu.
func (d *dispatcher) endLocked(r *runState) {
	r.finished = true
	r.queue = nil
	r.done = nil
	r.cp.close()
	r.cp = nil
	r.signalTerminal()
	d.cond.Broadcast()
}

// abortRun ends a run before its natural completion: queued shards are
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
// worker stays in the pool.
func (d *dispatcher) cancelled(key jobKey, jobID int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := key.r
	r.inflight--
	delete(d.assigned, jobID)
	r.stats.CancelledJobs++
	if !r.finished {
		// A cancel that raced a still-running run (should not happen —
		// cancels are only sent after the run finished — but a shard
		// must never be silently lost).
		if _, done := r.done[key.shard]; !done && !queued(r.queue, key.shard) {
			r.queue = append(r.queue, key.shard)
		}
	}
	d.cond.Broadcast()
}

// queued reports whether shard id is in the pending queue.
func queued(queue []int, id int) bool {
	for _, q := range queue {
		if q == id {
			return true
		}
	}
	return false
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

func (d *dispatcher) fail(key jobKey, jobID int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key.r.inflight--
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
