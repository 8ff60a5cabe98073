package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
	"herald/internal/sweep"
)

// procs is the worker-process count of every workload: one per core of
// the two-core reference machine.
const procs = 2

// opResult is one operation of a measured window: a sweep point, a
// precision-targeted run, or a served request.
type opResult struct {
	Run *runInput
	Req int // operation id; the operation's spans carry it
	// Slice is the closed-loop pass, or the third of the open-loop
	// schedule, the operation belongs to.
	Slice int
	// Start is when the operation was due (scheduled send, submit, sweep
	// start) and End when its result arrived.
	Start, End time.Time
	// Sent and First are a served request's actual send and first
	// streamed event.
	Sent, First time.Time
	Summary     []byte
	Stats       *shard.Stats
	Cached      bool
	Refused     bool
	Err         error
}

// Latency is the operation's time to result.
func (o *opResult) Latency() time.Duration { return o.End.Sub(o.Start) }

// window is one measured stretch of a workload.
type window struct {
	ops        []opResult
	passes     [][2]time.Time // closed-loop passes
	start, end time.Time
	// cacheBefore and cacheAfter bracket the serve window.
	cacheBefore, cacheAfter serve.CacheStats
}

// workload is one benchmark workload against the program's entry
// points.
type workload interface {
	// setUp starts workers, pool and server and warms them up. A non-nil
	// recorder puts every worker behind the timing wrapper.
	setUp(rec *recorder) error
	// window runs measured window w (0 or 1). Failed operations carry
	// their error in the window.
	window(rec *recorder, w int) *window
	// pids lists the worker processes.
	pids() []int
	// tearDown stops everything setUp started; it is idempotent.
	tearDown()
}

func newWorkload(in *inputs) workload {
	switch in.Workload {
	case "paper-sweep":
		return &paperSweep{in: in}
	case "precision-tcp":
		return &precisionTCP{in: in}
	default:
		return &serveMixed{in: in}
	}
}

// warmSpec is a tiny two-shard run that makes every worker execute one
// job before timing starts.
func warmSpec() shard.RunSpec {
	return shard.RunSpec{Params: sim.PaperDefaults(4, 1e-6, 0.01),
		Options: sim.Options{Iterations: 512, MissionTime: mission, Seed: 1}, Shards: procs}
}

// ---------------------------------------------------------------------
// paper-sweep: sweep.MonteCarlo over two stdio worker processes
// ---------------------------------------------------------------------

type paperSweep struct {
	in      *inputs
	raw     []shard.Worker
	workers []shard.Worker
}

func (b *paperSweep) setUp(rec *recorder) error {
	ws, err := shard.SpawnLocal(procs)
	if err != nil {
		return err
	}
	b.raw, b.workers = ws, wrap(ws, rec)
	w := warmSpec()
	_, err = sweep.MonteCarlo([]sweep.MCPoint{{Label: "warm-up", Params: w.Params, Options: w.Options, Shards: w.Shards}}, b.workers, nil)
	return err
}

func (b *paperSweep) window(rec *recorder, _ int) *window {
	points := make([]sweep.MCPoint, len(b.in.Runs))
	for i := range b.in.Runs {
		r := &b.in.Runs[i]
		points[i] = sweep.MCPoint{Label: r.Label, Params: r.p, Options: r.Options}
	}
	win := &window{start: time.Now()}
	for pass := 0; pass < b.in.Passes; pass++ {
		t0 := time.Now()
		res, err := sweep.MonteCarlo(points, b.workers, nil)
		t1 := time.Now()
		win.passes = append(win.passes, [2]time.Time{t0, t1})
		if rec.enabled() {
			rec.add(Span{Name: "sweep.pass", Req: pass + 1, Start: rec.at(t0), End: rec.at(t1)})
		}
		for i := range res {
			op := opResult{Run: &b.in.Runs[i], Req: pass + 1, Slice: pass, Start: t0, End: t0.Add(res[i].Done), Stats: &res[i].Stats}
			if res[i].Summary.Iterations == 0 {
				op.End, op.Err = t1, fmt.Errorf("point %s did not finish: %v", b.in.Runs[i].Label, err)
			} else {
				op.Summary, op.Err = json.Marshal(res[i].Summary)
			}
			win.ops = append(win.ops, op)
		}
	}
	win.end = time.Now()
	return win
}

func (b *paperSweep) pids() []int { return localPIDs(b.raw) }

func (b *paperSweep) tearDown() {
	for _, w := range b.raw {
		w.Close()
	}
	b.raw, b.workers = nil, nil
}

// ---------------------------------------------------------------------
// The HTTP front: an availserve Server on loopback over a pool
// ---------------------------------------------------------------------

// reqHeader carries the benchmark's request id to the handler wrapper.
const reqHeader = "X-Perfbench-Req"

// timedHandler records Server.ServeHTTP time per request while its
// recorder is enabled.
type timedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.enabled() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := t.rec.now()
	t.h.ServeHTTP(w, r)
	req, _ := strconv.Atoi(r.Header.Get(reqHeader))
	t.rec.add(Span{Name: "serve.handler", Req: req, Start: start, End: t.rec.now()})
}

// front is an in-process availserve Server behind httptest on loopback,
// over a pool, and the client that calls it over at most conns
// connections.
type front struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	nextReq atomic.Int64
}

func newFront(pool *shard.Pool, rec *recorder, cacheEntries, conns int) (*front, error) {
	srv, err := serve.NewServer(serve.Config{Pool: pool, CacheEntries: cacheEntries})
	if err != nil {
		return nil, err
	}
	return &front{
		srv:    srv,
		ts:     httptest.NewServer(&timedHandler{h: srv, rec: rec}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
	}, nil
}

// close shuts the listener and the client down and waits for the
// server's in-flight runs.
func (f *front) close() {
	f.ts.Close()
	f.client.CloseIdleConnections()
	f.srv.Drain()
}

// serveEvent is the part of a streamed event the client reads.
type serveEvent struct {
	Type    string          `json:"type"`
	Cached  bool            `json:"cached"`
	Summary json.RawMessage `json:"summary"`
	Error   string          `json:"error"`
}

// send issues one request and reads its response to the last byte (for
// streams, the terminal result event). Its latency counts from due.
func (f *front) send(rec *recorder, a *arrival, due time.Time) opResult {
	req := int(f.nextReq.Add(1))
	op := opResult{Run: &a.Run, Req: req, Start: due}
	body, err := json.Marshal(a.Run.request())
	if err != nil {
		op.Err = err
		return op
	}
	url := f.ts.URL + "/v1/run"
	if a.Stream {
		url += "?stream=1"
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		op.Err = err
		return op
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(reqHeader, strconv.Itoa(req))
	op.Sent = time.Now()
	resp, err := f.client.Do(hr)
	if err != nil {
		op.End, op.Err = time.Now(), err
		return op
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		op.Refused = true
		op.Err = fmt.Errorf("refused: %s", resp.Status)
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(resp.Body)
		op.Err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	case a.Stream:
		op.Err = readStream(resp.Body, &op)
	default:
		var rr serve.RunResponse
		if op.Err = json.NewDecoder(resp.Body).Decode(&rr); op.Err == nil {
			op.Summary, op.Cached = rr.Summary, rr.Cached
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	op.End = time.Now()
	if rec.enabled() {
		root := rec.add(Span{Name: "request", Req: req, Start: rec.at(op.Start), End: rec.at(op.End)})
		rec.add(Span{Name: "loadgen.lag", Parent: root, Req: req, Start: rec.at(op.Start), End: rec.at(op.Sent)})
		rec.add(Span{Name: "http.client", Parent: root, Req: req, Start: rec.at(op.Sent), End: rec.at(op.End)})
	}
	return op
}

func readStream(body io.Reader, op *opResult) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if op.First.IsZero() {
			op.First = time.Now()
		}
		var ev serveEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream event: %w", err)
		}
		switch ev.Type {
		case "result":
			op.Summary, op.Cached = ev.Summary, ev.Cached
			return nil
		case "error":
			return fmt.Errorf("stream error: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a result")
}

// ---------------------------------------------------------------------
// precision-tcp: precision-targeted runs served over two TCP workers
// ---------------------------------------------------------------------

// precisionTCP submits its runs as streamed availserve requests, one at
// a time; the server hands each to Pool.SubmitCtx on a pool of two TCP
// workers. The server's cache holds one entry, so the run sequence,
// repeated every pass, never hits it.
type precisionTCP struct {
	in    *inputs
	procs []*tcpProc
	pool  *shard.Pool
	front *front
}

func (b *precisionTCP) setUp(rec *recorder) error {
	ps, err := spawnTCP(procs)
	if err != nil {
		return err
	}
	b.procs = ps
	raw := make([]shard.Worker, len(ps))
	for i, p := range ps {
		raw[i] = p.worker
	}
	if b.pool, err = shard.NewPool(wrap(raw, rec), nil, nil); err != nil {
		return err
	}
	if b.front, err = newFront(b.pool, rec, 1, 1); err != nil {
		return err
	}
	w := warmSpec()
	warm, err := newRunInput("warm-up", "warm-up", w.Params, w.Options)
	if err != nil {
		return err
	}
	return b.front.send(rec, &arrival{Stream: true, Run: warm}, time.Now()).Err
}

func (b *precisionTCP) window(rec *recorder, _ int) *window {
	win := &window{start: time.Now(), cacheBefore: b.front.srv.CacheStats()}
	for pass := 0; pass < b.in.Passes; pass++ {
		t0 := time.Now()
		for i := range b.in.Runs {
			op := b.front.send(rec, &arrival{Stream: true, Run: b.in.Runs[i]}, time.Now())
			op.Slice = pass
			win.ops = append(win.ops, op)
		}
		win.passes = append(win.passes, [2]time.Time{t0, time.Now()})
	}
	win.end = time.Now()
	win.cacheAfter = b.front.srv.CacheStats()
	return win
}

func (b *precisionTCP) pids() []int {
	var out []int
	for _, p := range b.procs {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

func (b *precisionTCP) tearDown() {
	if b.front != nil {
		b.front.close()
	}
	if b.pool != nil {
		b.pool.Close()
	}
	stopTCP(b.procs)
	b.front, b.pool, b.procs = nil, nil, nil
}

// ---------------------------------------------------------------------
// serve-mixed: open-loop HTTP traffic against an in-process availserve
// ---------------------------------------------------------------------

type serveMixed struct {
	in    *inputs
	raw   []shard.Worker
	pool  *shard.Pool
	front *front
}

func (b *serveMixed) setUp(rec *recorder) error {
	ws, err := shard.SpawnLocal(procs)
	if err != nil {
		return err
	}
	b.raw = ws
	if b.pool, err = shard.NewPool(wrap(ws, rec), nil, nil); err != nil {
		return err
	}
	if b.front, err = newFront(b.pool, rec, 4096, procs); err != nil {
		return err
	}
	// Warm-up fills the cache with the hot set the hits draw from.
	for i := range b.in.Hot {
		if err := b.front.send(rec, &arrival{Run: b.in.Hot[i]}, time.Now()).Err; err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *serveMixed) window(rec *recorder, w int) *window {
	sched := b.in.Windows[w]
	win := &window{cacheBefore: b.front.srv.CacheStats()}
	ops := make([]opResult, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	win.start = time.Now()
	// Two senders, one per client connection, take arrivals in schedule
	// order; an arrival due while both are busy waits, and its latency
	// counts from when it was due.
	for s := 0; s < procs; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := win.start.Add(sched[i].At)
				time.Sleep(time.Until(due))
				ops[i] = b.front.send(rec, &sched[i], due)
				ops[i].Slice = min(serveSlices-1, int(serveSlices*sched[i].At.Seconds()/b.in.Seconds))
			}
		}()
	}
	wg.Wait()
	win.end = time.Now()
	win.ops = ops
	win.cacheAfter = b.front.srv.CacheStats()
	return win
}

func (b *serveMixed) pids() []int { return localPIDs(b.raw) }

func (b *serveMixed) tearDown() {
	if b.front != nil {
		b.front.close()
	}
	if b.pool != nil {
		b.pool.Close()
	}
	for _, w := range b.raw {
		w.Close()
	}
	b.front, b.pool, b.raw = nil, nil, nil
}
