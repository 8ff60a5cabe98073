package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"herald/internal/dist"
	"herald/internal/shard"
	"herald/internal/sim"
	"herald/internal/stats"
	"herald/internal/xrand"
)

// ledgerRows are the layer rows of the ledger, in print order. Every
// instant of an operation is charged to exactly one of them (see
// attribute), so they sum to the end-to-end time.
var ledgerRows = []string{
	"loadgen",        // arrival due but not yet sent (both connections busy)
	"http",           // client round trip outside Server.ServeHTTP
	"serve",          // ServeHTTP time with none of the run's jobs outstanding
	"shard.queue",    // job sent, waiting behind another job on its worker
	"shard.dispatch", // job executing, beyond kernel and codec: pipes, framing, scheduling
	"shard.codec",    // JSON encode and decode of the job and result messages
	"sim.kernel",     // the job's iterations, replayed in-process on one core
	"sim.summarize",  // folding the run's partials into its Summary
	"sim.stopscan",   // the adaptive stopping scan over the run's partials
	"unexplained",    // operation time no layer span covers
}

// jobInfo is a recorded job with what the replay derived for it.
type jobInfo struct {
	*jobRecord
	svcStart time.Duration // when the worker likely began executing it
	kernelNS float64       // replayed (or per-iteration estimated) compute
	codecNS  float64       // measured message encode + decode
	wireB    int
}

func (j *jobInfo) svc() float64 { return float64(j.Ret - j.svcStart) }

// analyze derives the per-layer metrics and prints the ledger of the
// traced window, wins[1]; wins[0] is the untraced window of the same
// run. Its replays run after both windows have ended.
func analyze(out io.Writer, in *inputs, wins []*window, rec *recorder) (map[string]metric, error) {
	spans, recs := rec.snapshot()
	win := wins[1]
	jobs := make([]*jobInfo, len(recs))
	for i := range recs {
		jobs[i] = &jobInfo{jobRecord: &recs[i]}
	}
	serviceStarts(jobs)
	nsPerIter, err := replay(jobs)
	if err != nil {
		return nil, err
	}
	if err := codec(jobs); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Kernel layers: micro-benchmarks and per-class replay cost.
	put("xrand.exp_ns", microExp(), "ns")
	put("dist.erlang_ns", microErlang(), "ns")
	put("dist.weibull_ns", microWeibull(), "ns")
	classNS, classIters := map[string]float64{}, map[string]float64{}
	for _, c := range nsPerIter {
		classNS[c.class] += c.ns * float64(c.iters)
		classIters[c.class] += float64(c.iters)
	}
	for _, c := range []string{"memoryless", "generic", "bias"} {
		v := 0.0
		if classIters[c] > 0 {
			v = classNS[c] / classIters[c]
		}
		put("sim.iter_ns."+c, v, "ns")
	}
	setupUS, err := rangeSetupUS(in)
	if err != nil {
		return nil, err
	}
	put("sim.range_setup_us", setupUS, "us")

	// Per-job shard metrics.
	var rtt, over, cod, wire, parts []float64
	cancelled, failedJobs := 0, 0
	var executed float64
	for _, j := range jobs {
		switch {
		case j.Cancelled:
			// A cancelled job ran for part of its execution span.
			cancelled++
			if ns := nsPerIter[j.FP].ns; ns > 0 {
				executed += j.kernelNS / ns
			}
			continue
		case j.Failed:
			failedJobs++
			continue
		}
		executed += float64(j.Job.End - j.Job.Start)
		rtt = append(rtt, ms(j.Ret-j.Send))
		over = append(over, (j.svc()-j.kernelNS)/1e6)
		cod = append(cod, j.codecNS/1e3)
		wire = append(wire, float64(j.wireB)/1024)
		parts = append(parts, float64(len(j.Parts)))
	}
	put("shard.job_rtt_ms", mean(rtt), "ms")
	put("shard.job_overhead_ms", mean(over), "ms")
	put("shard.codec_us_per_job", mean(cod), "us")
	put("shard.wire_kb_per_job", mean(wire), "KB")
	put("shard.partials_per_job", mean(parts), "count")

	runs, ledgerOps := operations(in, win, rec, spans, jobs)
	var waves, queue []float64
	var kept float64
	flights, statCancelled, statFailures := 0, 0, 0
	haveStats := false
	counted := map[*jobInfo]bool{}
	for _, o := range runs {
		// Duplicate requests of one flight share its jobs; count them once.
		dup := false
		for _, j := range o.jobs {
			dup = dup || counted[j]
			counted[j] = true
		}
		if len(o.jobs) == 0 || o.op.Err != nil || dup {
			continue
		}
		flights++
		kept += float64(o.kept)
		if st := o.op.Stats; st != nil {
			haveStats = true
			waves = append(waves, float64(st.Waves))
			statCancelled += st.CancelledJobs
			statFailures += st.WorkerFailures
		} else {
			waves = append(waves, float64(observedWaves(o.jobs)))
		}
		first := o.jobs[0].Send
		for _, j := range o.jobs {
			first = min(first, j.Send)
		}
		queue = append(queue, ms(max(0, first-o.submit)))
	}
	if haveStats {
		cancelled, failedJobs = statCancelled, statFailures
	}
	put("shard.jobs_per_run", float64(len(jobs))/float64(max(1, flights)), "count")
	put("shard.waves_per_run", mean(waves), "count")
	put("shard.cancelled_jobs", float64(cancelled), "count")
	put("shard.worker_failures", float64(failedJobs), "count")
	discarded := 0.0
	if executed > 0 {
		discarded = math.Max(0, executed-kept) / executed
	}
	put("shard.discarded_iter_frac", discarded, "ratio")
	put("shard.queue_wait_ms", mean(queue), "ms")
	put("shard.slot_idle_frac", slotIdle(runs, jobs), "ratio")

	// Coordinator-side replays: Summarize and the stopping scan.
	sumUS, scanUS, err := coordinatorReplay(runs)
	if err != nil {
		return nil, err
	}
	put("sim.summarize_us", mean(values(sumUS)), "us")
	put("sim.stopscan_us", mean(values(scanUS)), "us")

	serveMetrics(m, win, runs)
	untraced, traced := primary(wins[0]), primary(win)
	put("tracing.overhead_frac", traced/untraced-1, "ratio")

	// The ledger.
	total, rows := ledger(ledgerOps, sumUS, scanUS)
	printLedger(out, in.Workload+": all operations", total, rows)
	if in.Workload == "serve-mixed" {
		var misses []*opTrace
		for _, o := range runs {
			if o.op.Run.Class == "miss" && !o.op.Cached {
				misses = append(misses, o)
			}
		}
		t, r := ledger(misses, sumUS, scanUS)
		printLedger(out, in.Workload+": small misses", t, r)
	}
	for _, row := range ledgerRows {
		v := 0.0
		if total > 0 {
			v = rows[row] / total
		}
		put("ledger."+row+"_frac", v, "ratio")
	}
	return m, nil
}

// serviceStarts estimates when each job began executing on its worker.
// A worker runs its jobs one at a time in the order they were sent, so
// a job starts when it is sent or when the worker's previous job
// returns, whichever is later; the gap is queueing inside the worker.
func serviceStarts(jobs []*jobInfo) {
	byWorker := map[string][]*jobInfo{}
	for _, j := range jobs {
		byWorker[j.Worker] = append(byWorker[j.Worker], j)
	}
	for _, js := range byWorker {
		sort.Slice(js, func(a, b int) bool { return js[a].Send < js[b].Send })
		var prev time.Duration
		for _, j := range js {
			j.svcStart = max(j.Send, min(prev, j.Ret))
			prev = max(prev, j.Ret)
		}
	}
}

// iterCost is a fingerprint's replayed per-iteration cost.
type iterCost struct {
	class string
	ns    float64
	iters int
}

// replay re-runs, for every run fingerprint, its largest completed job
// through sim.RunRange in this process with one worker, on procs
// goroutines at once (as many as there were worker processes). Every
// job's kernel time is then its iteration count at that cost.
func replay(jobs []*jobInfo) (map[string]iterCost, error) {
	rep := map[string]*jobInfo{}
	var fps []string
	for _, j := range jobs {
		if j.Cancelled || j.Failed {
			continue
		}
		cur, ok := rep[j.FP]
		if !ok {
			fps = append(fps, j.FP)
		}
		if !ok || j.Job.End-j.Job.Start > cur.Job.End-cur.Job.Start {
			rep[j.FP] = j
		}
	}
	costs := make([]iterCost, len(fps))
	errs := make([]error, len(fps))
	var next sync.Mutex
	idx := 0
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(fps) {
					return
				}
				costs[i], errs[i] = replayJob(&rep[fps[i]].Job)
			}
		}()
	}
	wg.Wait()
	out := map[string]iterCost{}
	for i, fp := range fps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[fp] = costs[i]
	}
	for _, j := range jobs {
		c := out[j.FP]
		n := float64(j.Job.End - j.Job.Start)
		j.kernelNS = c.ns * n
		if j.Cancelled {
			j.kernelNS = math.Min(j.kernelNS, math.Max(0, j.svc()))
		}
	}
	return out, nil
}

// replayJob times the job's range at one worker. It repeats at least
// twice and until 50 ms have been spent (at most five times), and keeps
// the fastest repetition: the least disturbed by a cold start or by
// other load on the machine.
func replayJob(j *shard.Job) (iterCost, error) {
	p, err := j.Params.Decode()
	if err != nil {
		return iterCost{}, err
	}
	o := j.Options
	o.Workers = 1
	class := "bias"
	if !o.Biased() {
		k, err := sim.ResolveKernel(p, o.Kernel)
		if err != nil {
			return iterCost{}, err
		}
		class = k.String()
	}
	best, spent := time.Duration(math.MaxInt64), time.Duration(0)
	for rep := 0; rep < 5 && (rep < 2 || spent < 50*time.Millisecond); rep++ {
		t := time.Now()
		if _, err := sim.RunRange(p, o, j.Start, j.End); err != nil {
			return iterCost{}, err
		}
		d := time.Since(t)
		best, spent = min(best, d), spent+d
	}
	n := j.End - j.Start
	return iterCost{class: class, ns: float64(best.Nanoseconds()) / float64(n), iters: n}, nil
}

// codec measures, per completed job, JSON encode plus decode of the job
// message and of its result message, and their size on the wire.
func codec(jobs []*jobInfo) error {
	for _, j := range jobs {
		if j.Cancelled || j.Failed {
			continue
		}
		t := time.Now()
		jm, err := json.Marshal(&shard.Message{Type: shard.MsgJob, Job: &j.Job})
		if err != nil {
			return err
		}
		rm, err := json.Marshal(&shard.Message{Type: shard.MsgResult, ID: j.Job.ID, Partials: j.Parts})
		if err != nil {
			return err
		}
		var a, b shard.Message
		if err := json.Unmarshal(jm, &a); err != nil {
			return err
		}
		if err := json.Unmarshal(rm, &b); err != nil {
			return err
		}
		j.codecNS = float64(time.Since(t).Nanoseconds())
		j.wireB = len(jm) + len(rm) + 2
	}
	return nil
}

// opTrace is one operation of the traced window with its spans and the
// jobs joined to it. Times are recorder offsets.
type opTrace struct {
	op      *opResult // nil for a sweep pass
	start   time.Duration
	end     time.Duration
	submit  time.Duration // when the run was handed to the pool
	handler *Span         // serve only
	sent    time.Duration // serve only
	jobs    []*jobInfo
	// fps lists the runs whose Summarize and stopping scan the
	// operation waits for (none for a cache hit).
	fps  []string
	kept int // iterations the run's summary covers
	// fixed is the Summarize input: the run's options with Iterations
	// set to the kept count, and the kept partials.
	fixed sim.Options
	parts []sim.Partial
}

// operations joins spans and jobs to the traced window. runs has one
// trace per submitted run (sweep point, precision run, served request),
// owning the jobs that carry its job fingerprint and were outstanding
// while it was. ledgerOps are what the ledger sums: the sweep's passes,
// each owning the jobs sent during it, or else the runs themselves.
func operations(in *inputs, win *window, rec *recorder, spans []Span, jobs []*jobInfo) (runs, ledgerOps []*opTrace) {
	handlers := map[int]*Span{}
	for i := range spans {
		if spans[i].Name == "serve.handler" {
			handlers[spans[i].Req] = &spans[i]
		}
	}
	byFP := map[string][]*jobInfo{}
	for _, j := range jobs {
		byFP[j.FP] = append(byFP[j.FP], j)
	}
	for i := range win.ops {
		op := &win.ops[i]
		o := &opTrace{op: op, start: rec.at(op.Start), end: rec.at(op.End), submit: rec.at(op.Start)}
		if !op.Cached {
			o.fps = []string{op.Run.fp}
		}
		lo, hi := o.start, o.end
		if in.Workload == "paper-sweep" {
			hi = rec.at(win.passes[op.Slice][1])
		}
		if !op.Sent.IsZero() { // a served request
			o.sent = rec.at(op.Sent)
			if o.handler = handlers[op.Req]; o.handler == nil {
				o.handler = &Span{Start: o.sent, End: o.sent}
			}
			lo, hi = o.handler.Start, o.handler.End
			o.submit = lo
		}
		for _, j := range jobs {
			if j.FP == op.Run.jobFP && j.Send < hi && j.Ret > lo {
				o.jobs = append(o.jobs, j)
			}
		}
		fillKept(o, byFP[op.Run.jobFP])
		runs = append(runs, o)
	}
	if in.Workload != "paper-sweep" {
		return runs, runs
	}
	for _, p := range win.passes {
		o := &opTrace{start: rec.at(p[0]), end: rec.at(p[1]), submit: rec.at(p[0])}
		for i := range in.Runs {
			o.fps = append(o.fps, in.Runs[i].fp)
		}
		for _, j := range jobs {
			if j.Send >= o.start && j.Send <= o.end {
				o.jobs = append(o.jobs, j)
			}
		}
		ledgerOps = append(ledgerOps, o)
	}
	return runs, ledgerOps
}

// fillKept reads how many iterations the run's summary covers and
// collects the partials Summarize folded from every job of the run's
// fingerprint (a duplicate request may have joined its flight after the
// first jobs returned). A run whose recorded partials do not tile its
// kept range gets none and is left out of the replays.
func fillKept(o *opTrace, jobs []*jobInfo) {
	var s struct{ Iterations int }
	if o.op.Err != nil || json.Unmarshal(o.op.Summary, &s) != nil {
		return
	}
	o.kept = s.Iterations
	o.fixed = o.op.Run.Options
	o.fixed.Iterations = s.Iterations
	seen := map[int]bool{}
	var parts []sim.Partial
	for _, j := range jobs {
		for _, pt := range j.Parts {
			if pt.Start < s.Iterations && !seen[pt.Start] {
				seen[pt.Start] = true
				parts = append(parts, pt)
			}
		}
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].Start < parts[b].Start })
	next := 0
	for _, pt := range parts {
		if pt.Start != next {
			return
		}
		next = pt.End
	}
	if next == s.Iterations {
		o.parts = parts
	}
}

// coordinatorReplay times sim.Summarize over each run's kept partials
// and, for adaptive runs, sim.NewStopScan plus Feed up to the stopping
// boundary — once per run fingerprint, in microseconds.
func coordinatorReplay(ops []*opTrace) (sumUS, scanUS map[string]float64, err error) {
	sumUS, scanUS = map[string]float64{}, map[string]float64{}
	for _, o := range ops {
		fp := o.op.Run.fp
		if len(o.parts) == 0 || o.kept == 0 || sumUS[fp] > 0 {
			continue
		}
		t := time.Now()
		if _, err := sim.Summarize(o.fixed, o.parts); err != nil {
			return nil, nil, fmt.Errorf("%s: summarize replay: %w", o.op.Run.Label, err)
		}
		sumUS[fp] = float64(time.Since(t).Nanoseconds()) / 1e3
		if !o.op.Run.Options.Adaptive() {
			continue
		}
		t = time.Now()
		scan, err := sim.NewStopScan(o.op.Run.Options)
		if err != nil {
			return nil, nil, err
		}
		for i := range o.parts {
			if scan.Feed(&o.parts[i]) {
				break
			}
		}
		scanUS[fp] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return sumUS, scanUS, nil
}

// observedWaves counts a run's handout waves from its jobs when no
// shard.Stats reach the benchmark (a served run): a wave opens only once
// every earlier job of the run has returned, so a job sent after all
// earlier-sent jobs returned starts a new wave.
func observedWaves(jobs []*jobInfo) int {
	js := append([]*jobInfo(nil), jobs...)
	sort.Slice(js, func(a, b int) bool { return js[a].Send < js[b].Send })
	waves := 0
	var lastRet time.Duration
	for i, j := range js {
		if i == 0 || j.Send >= lastRet {
			waves++
		}
		lastRet = max(lastRet, j.Ret)
	}
	return waves
}

// slotIdle is the share of worker time with no job outstanding while a
// run was live.
func slotIdle(ops []*opTrace, jobs []*jobInfo) float64 {
	var live [][2]time.Duration
	for _, o := range ops {
		if len(o.jobs) > 0 {
			live = append(live, [2]time.Duration{o.submit, o.end})
		}
	}
	if len(live) == 0 {
		return 0
	}
	live = union(live)
	var liveT time.Duration
	for _, l := range live {
		liveT += l[1] - l[0]
	}
	byWorker := map[string][][2]time.Duration{}
	for _, j := range jobs {
		byWorker[j.Worker] = append(byWorker[j.Worker], [2]time.Duration{j.Send, j.Ret})
	}
	var busy time.Duration
	for _, ivs := range byWorker {
		for _, l := range live {
			busy += covered(l[0], l[1], ivs)
		}
	}
	return 1 - float64(busy)/float64(time.Duration(procs)*liveT)
}

// union merges overlapping intervals.
func union(ivs [][2]time.Duration) [][2]time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var out [][2]time.Duration
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], iv[1])
			continue
		}
		out = append(out, iv)
	}
	return out
}

// ledger charges the operations' time to layer rows.
func ledger(ops []*opTrace, sumUS, scanUS map[string]float64) (float64, map[string]float64) {
	rows := map[string]float64{}
	total := 0.0
	for _, o := range ops {
		host := "unexplained"
		if o.handler != nil {
			host = "serve"
		}
		var ps []piece
		if o.handler != nil {
			ps = append(ps,
				piece{o.start, o.sent, 1, []share{{"loadgen", 1}}},
				piece{o.sent, o.end, 1, []share{{"http", 1}}},
				piece{o.handler.Start, o.handler.End, 2, []share{{"serve", 1}}})
		}
		for _, j := range o.jobs {
			ps = append(ps, piece{j.Send, j.svcStart, 3, []share{{"shard.queue", 1}}})
			svc := j.svc()
			if svc <= 0 {
				continue
			}
			k := math.Min(1, j.kernelNS/svc)
			c := math.Min(1-k, j.codecNS/svc)
			ps = append(ps, piece{j.svcStart, j.Ret, 4, []share{
				{"sim.kernel", k}, {"shard.codec", c}, {"shard.dispatch", 1 - k - c}}})
		}
		a := attribute(o.start, o.end, ps, "unexplained")
		// Summarize and the stopping scan run in the coordinator between
		// jobs; charge their replayed cost to time no job covered.
		for _, fp := range o.fps {
			for _, c := range []struct {
				row string
				us  float64
			}{{"sim.summarize", sumUS[fp]}, {"sim.stopscan", scanUS[fp]}} {
				moved := math.Min(c.us/1e6, a[host])
				a[host] -= moved
				a[c.row] += moved
			}
		}
		for row, v := range a {
			rows[row] += v
		}
		total += (o.end - o.start).Seconds()
	}
	return total, rows
}

func printLedger(out io.Writer, title string, total float64, rows map[string]float64) {
	fmt.Fprintf(out, "== ledger, %s (end-to-end %.4f s summed over operations)\n", title, total)
	sum := 0.0
	for _, row := range ledgerRows {
		share := 0.0
		if total > 0 {
			share = rows[row] / total
		}
		sum += rows[row]
		fmt.Fprintf(out, "  %-16s %12.6f s %7.2f%%\n", row, rows[row], 100*share)
	}
	fmt.Fprintf(out, "  %-16s %12.6f s\n", "sum", sum)
}

// serveMetrics fills the serve, http and loadgen metrics (zero where the
// workload has no such layer).
func serveMetrics(m map[string]metric, win *window, runs []*opTrace) {
	var hitUS, missMS, selfMS, clientUS, firstMS, lag []float64
	sent, ok, refused, failed, noncached := 0, 0, 0, 0, 0
	for _, o := range runs {
		op := o.op
		sent++
		switch {
		case op.Refused:
			refused++
		case op.Err != nil:
			failed++
		default:
			ok++
		}
		if o.handler == nil {
			continue
		}
		h := o.handler.Dur()
		lag = append(lag, ms(o.sent-o.start))
		clientUS = append(clientUS, float64(o.end-o.sent-h)/1e3)
		if !op.First.IsZero() {
			firstMS = append(firstMS, ms(op.First.Sub(op.Sent)))
		}
		if op.Cached {
			hitUS = append(hitUS, float64(h)/1e3)
		} else {
			missMS = append(missMS, ms(h))
			jobSpans := make([]Span, len(o.jobs))
			for i, j := range o.jobs {
				jobSpans[i] = Span{Start: j.Send, End: j.Ret}
			}
			selfMS = append(selfMS, ms(selfTime(*o.handler, jobSpans)))
		}
		if !op.Cached && op.Err == nil {
			noncached++
		}
	}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("serve.handler_us.hit", mean(hitUS), "us")
	put("serve.handler_ms.miss", mean(missMS), "ms")
	put("serve.self_ms.miss", mean(selfMS), "ms")
	put("http.client_overhead_us", mean(clientUS), "us")
	put("serve.first_event_ms", mean(firstMS), "ms")
	hits := float64(win.cacheAfter.Hits - win.cacheBefore.Hits)
	misses := float64(win.cacheAfter.Misses - win.cacheBefore.Misses)
	hitFrac, dedup := 0.0, 0.0
	if hits+misses > 0 {
		hitFrac = hits / (hits + misses)
	}
	if len(lag) > 0 {
		joins := float64(noncached) - float64(win.cacheAfter.Inserts-win.cacheBefore.Inserts)
		dedup = math.Max(0, joins) / float64(len(lag))
	}
	put("serve.hit_frac", hitFrac, "ratio")
	put("serve.dedup_frac", dedup, "ratio")
	put("serve.refused", float64(refused), "count")
	lagP99 := 0.0
	if len(lag) > 0 {
		lagP99 = percentile(lag, 0.99)
	}
	put("loadgen.lag_p99_ms", lagP99, "ms")
	put("loadgen.sent", float64(sent), "count")
	put("loadgen.ok", float64(ok), "count")
	put("loadgen.refused", float64(refused), "count")
	put("loadgen.failed", float64(failed), "count")
}

// primary is the figure tracing overhead is judged on: the median pass
// wall of a closed-loop window, the mean request latency of an open-loop
// one.
func primary(win *window) float64 {
	if len(win.passes) > 0 {
		return passWall(win)
	}
	var lat []float64
	for i := range win.ops {
		lat = append(lat, win.ops[i].Latency().Seconds())
	}
	return mean(lat)
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// rangeSetupUS is the per-call cost of sim.RunRange beyond its
// iterations, for the workload's first run configuration at one worker.
// A 128-iteration run has two 64-iteration cells; running them as two
// ranges costs the same iterations plus one extra set-up, so the set-up
// is t(cell 0) + t(cell 1) - t(both cells).
func rangeSetupUS(in *inputs) (float64, error) {
	base := in.Runs
	if len(base) == 0 {
		base = in.Hot
	}
	p := base[0].p
	o := base[0].Options
	o.TargetHalfWidth, o.MaxIters, o.Workers, o.Iterations = 0, 0, 1, 128
	timeRange := func(start, end int) (float64, error) {
		var ts []float64
		for r := 0; r < 201; r++ {
			t := time.Now()
			if _, err := sim.RunRange(p, o, start, end); err != nil {
				return 0, err
			}
			ts = append(ts, float64(time.Since(t).Nanoseconds()))
		}
		return stats.Median(ts), nil
	}
	var t [3]float64
	for i, rg := range [][2]int{{0, 64}, {64, 128}, {0, 128}} {
		var err error
		if t[i], err = timeRange(rg[0], rg[1]); err != nil {
			return 0, err
		}
	}
	return (t[0] + t[1] - t[2]) / 1e3, nil
}

// microNS times fn over batches and returns the median ns per call.
func microNS(calls int, fn func(n int)) float64 {
	var ts []float64
	for b := 0; b < 7; b++ {
		t := time.Now()
		fn(calls)
		ts = append(ts, float64(time.Since(t).Nanoseconds())/float64(calls))
	}
	return stats.Median(ts)
}

var sink float64

// microExp is the cost per variate of ExpFloat64N refills of the
// kernels' eight-slot buffer.
func microExp() float64 {
	r := xrand.New(1)
	buf := make([]float64, 8)
	return microNS(1<<18, func(n int) {
		for i := 0; i < n; i += len(buf) {
			r.ExpFloat64N(buf)
			sink += buf[0]
		}
	})
}

// microErlang is the cost per dist.ErlangFloat64 draw, cycling through
// the chunk sizes the memoryless kernels aggregate.
func microErlang() float64 {
	r := xrand.New(2)
	ks := []int{2, 4, 8, 16, 32, 64}
	return microNS(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			sink += dist.ErlangFloat64(r, ks[i%len(ks)])
		}
	})
}

// microWeibull is the cost per draw of the steepest Fig. 5 Weibull law.
func microWeibull() float64 {
	r := xrand.New(3)
	w := dist.WeibullFromMeanRate(2e-5, 1.48)
	return microNS(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			sink += w.Sample(r)
		}
	})
}
