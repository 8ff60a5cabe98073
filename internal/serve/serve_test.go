package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
)

var (
	testParams  = sim.PaperDefaults(4, 1e-4, 0.02)
	testOptions = sim.Options{Iterations: 2000, MissionTime: 2e5, Seed: 20170327}
)

// wireRequest lowers in-memory parameters to the JSON body of
// POST /v1/run.
func wireRequest(t *testing.T, p sim.ArrayParams, o serve.RunOptions, shards int) []byte {
	t.Helper()
	wp, err := shard.EncodeParams(p)
	if err != nil {
		t.Fatalf("EncodeParams: %v", err)
	}
	b, err := json.Marshal(serve.RunRequest{Params: wp, Options: o, Shards: shards})
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return b
}

func runOpts(o sim.Options) serve.RunOptions {
	return serve.RunOptions{
		Iterations:      o.Iterations,
		MissionTime:     o.MissionTime,
		Seed:            o.Seed,
		TargetHalfWidth: o.TargetHalfWidth,
		MaxIters:        o.MaxIters,
	}
}

// simBytes is the ground truth: the marshalled Summary of an
// in-process run. The service must return these exact bytes.
func simBytes(t *testing.T, p sim.ArrayParams, o sim.Options) []byte {
	t.Helper()
	sum, err := sim.Run(p, o)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	return b
}

func newTestServer(t *testing.T, cfg serve.Config, workers ...shard.Worker) (*httptest.Server, *serve.Server, *shard.Pool) {
	t.Helper()
	if len(workers) == 0 {
		workers = []shard.Worker{shard.NewInProcessWorker("test", 2)}
	}
	pool, err := shard.NewPool(workers, nil, nil)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	cfg.Pool = pool
	srv, err := serve.NewServer(cfg)
	if err != nil {
		pool.Close()
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
		pool.Close()
	})
	return hs, srv, pool
}

func postRun(t *testing.T, url string, body []byte) (*http.Response, serve.RunResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var rr serve.RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("decode response %q: %v", raw, err)
		}
	}
	return resp, rr
}

func cacheStats(t *testing.T, url string) serve.CacheStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/cache")
	if err != nil {
		t.Fatalf("GET /v1/cache: %v", err)
	}
	defer resp.Body.Close()
	var st serve.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cache stats: %v", err)
	}
	return st
}

// TestRunMatchesSimAndCaches pins the service's core contract: the
// HTTP summary is byte-identical to an in-process sim.Run, and the
// identical repeat request is served from the cache.
func TestRunMatchesSimAndCaches(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{})
	body := wireRequest(t, testParams, runOpts(testOptions), 4)
	want := simBytes(t, testParams, testOptions)

	resp, rr := postRun(t, hs.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if rr.Cached {
		t.Fatalf("first request reported cached")
	}
	if !bytes.Equal(rr.Summary, want) {
		t.Fatalf("summary mismatch:\n got %s\nwant %s", rr.Summary, want)
	}
	if rr.Fingerprint == "" {
		t.Fatalf("empty fingerprint")
	}

	resp2, rr2 := postRun(t, hs.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	if !rr2.Cached {
		t.Fatalf("repeat request not served from cache")
	}
	if !bytes.Equal(rr2.Summary, want) {
		t.Fatalf("cached summary differs from fresh one")
	}
	if rr2.Fingerprint != rr.Fingerprint {
		t.Fatalf("fingerprint changed across identical requests: %s vs %s", rr.Fingerprint, rr2.Fingerprint)
	}

	st := cacheStats(t, hs.URL)
	if st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry / 1 insert", st)
	}
	if st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}

	// A schedule-only difference (shard partition) must hit the same
	// cache entry: the fingerprint ignores it.
	resp3, rr3 := postRun(t, hs.URL, wireRequest(t, testParams, runOpts(testOptions), 9))
	if resp3.StatusCode != http.StatusOK || !rr3.Cached {
		t.Fatalf("different shard count missed the cache (status %d, cached %v)", resp3.StatusCode, rr3.Cached)
	}
}

// blockingWorker delegates to an in-process worker but holds every job
// until released, making admission and dedup windows deterministic.
type blockingWorker struct {
	inner   shard.Worker
	started chan struct{}
	release chan struct{}

	mu   sync.Mutex
	jobs int
}

func newBlockingWorker() *blockingWorker {
	return &blockingWorker{
		inner:   shard.NewInProcessWorker("inner", 2),
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *blockingWorker) Name() string { return "blocking" }

func (b *blockingWorker) Run(j *shard.Job) ([]sim.Partial, error) {
	b.mu.Lock()
	b.jobs++
	b.mu.Unlock()
	b.started <- struct{}{}
	<-b.release
	return b.inner.Run(j)
}

func (b *blockingWorker) Close() error { return b.inner.Close() }

func (b *blockingWorker) jobCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.jobs
}

// TestConcurrentIdenticalRequestsRunOnce pins singleflight dedup: two
// concurrent identical requests produce exactly one underlying run and
// byte-identical responses.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	bw := newBlockingWorker()
	hs, _, _ := newTestServer(t, serve.Config{}, bw)
	body := wireRequest(t, testParams, runOpts(testOptions), 1)

	type outcome struct {
		status int
		rr     serve.RunResponse
	}
	results := make(chan outcome, 2)
	do := func() {
		resp, rr := postRun(t, hs.URL, body)
		results <- outcome{resp.StatusCode, rr}
	}
	go do()
	<-bw.started // the first request's single job is on the worker
	go do()
	time.Sleep(50 * time.Millisecond) // let the second request join the flight
	close(bw.release)

	a, b := <-results, <-results
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses = %d, %d", a.status, b.status)
	}
	if !bytes.Equal(a.rr.Summary, b.rr.Summary) {
		t.Fatalf("concurrent identical requests returned different bytes")
	}
	if a.rr.Cached || b.rr.Cached {
		t.Fatalf("neither request should report cached (both were computed once, together)")
	}
	if got := bw.jobCount(); got != 1 {
		t.Fatalf("worker executed %d jobs, want exactly 1 (dedup failed)", got)
	}
	if st := cacheStats(t, hs.URL); st.Inserts != 1 {
		t.Fatalf("cache inserts = %d, want 1", st.Inserts)
	}
}

// post sends body to url and returns the reply of a 200. It reports
// every failure as an error, so request goroutines may call it.
func post(url string, body []byte) ([]byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw, err
}

// TestQueuedIdenticalRequestsRunOnce pins dedup across admission: two
// identical requests that both wait for the only execution slot run
// once. The one admitted first leads and replies cached false; the
// other finds the run finished once admitted and replies cached true.
func TestQueuedIdenticalRequestsRunOnce(t *testing.T) {
	bw := newBlockingWorker()
	hs, _, _ := newTestServer(t, serve.Config{MaxInFlight: 1, MaxQueued: 4}, bw)
	distinct := testOptions
	distinct.Seed = 99
	holder := make(chan error, 1)
	go func() {
		_, err := post(hs.URL+"/v1/run", wireRequest(t, testParams, runOpts(distinct), 1))
		holder <- err
	}()
	<-bw.started // the distinct run holds the only slot

	body := wireRequest(t, testParams, runOpts(testOptions), 1)
	type outcome struct {
		raw []byte
		err error
	}
	pair := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			raw, err := post(hs.URL+"/v1/run", body)
			pair <- outcome{raw, err}
		}()
	}
	// Both have missed the table and wait for admission.
	deadline := time.Now().Add(10 * time.Second)
	for cacheStats(t, hs.URL).Misses < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("identical requests never reached admission: %+v", cacheStats(t, hs.URL))
		}
		time.Sleep(time.Millisecond)
	}
	close(bw.release)

	if err := <-holder; err != nil {
		t.Fatalf("distinct run: %v", err)
	}
	want := simBytes(t, testParams, testOptions)
	cached := 0
	for i := 0; i < 2; i++ {
		o := <-pair
		if o.err != nil {
			t.Fatalf("identical request: %v", o.err)
		}
		var rr serve.RunResponse
		if err := json.Unmarshal(o.raw, &rr); err != nil {
			t.Fatalf("decode %q: %v", o.raw, err)
		}
		if !bytes.Equal(rr.Summary, want) {
			t.Fatalf("summary differs from in-process run:\n got %s\nwant %s", rr.Summary, want)
		}
		if rr.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("%d of the pair replied cached, want exactly 1", cached)
	}
	if got := bw.jobCount(); got != 2 {
		t.Fatalf("worker executed %d jobs, want 2 (the distinct run and one of the pair)", got)
	}
}

// TestTableUnderConcurrency drives the one table from many goroutines:
// plain, streamed and sweep requests over a few fingerprints, sweeps
// repeating a point, on a table of two entries, so entries are evicted
// while other requests still hold them. Every reply is the in-process
// run's bytes, every request returns, and Drain returns.
func TestTableUnderConcurrency(t *testing.T) {
	hs, srv, _ := newTestServer(t, serve.Config{CacheEntries: 2})
	wp, err := shard.EncodeParams(testParams)
	if err != nil {
		t.Fatal(err)
	}
	const fps, goroutines, rounds = 3, 6, 6
	points := make([]serve.RunRequest, fps)
	bodies := make([][]byte, fps)
	want := make([][]byte, fps)
	for i := range points {
		o := testOptions
		o.Iterations = 500
		o.Seed = uint64(i + 1)
		points[i] = serve.RunRequest{Params: wp, Options: runOpts(o), Shards: 2}
		bodies[i] = wireRequest(t, testParams, runOpts(o), 2)
		want[i] = simBytes(t, testParams, o)
	}
	check := func(i int, summary []byte) error {
		if !bytes.Equal(summary, want[i]) {
			return fmt.Errorf("point %d: summary differs from in-process run:\n got %s\nwant %s", i, summary, want[i])
		}
		return nil
	}
	plain := func(i int) error {
		raw, err := post(hs.URL+"/v1/run", bodies[i])
		var rr serve.RunResponse
		if err == nil {
			err = json.Unmarshal(raw, &rr)
		}
		if err != nil {
			return err
		}
		return check(i, rr.Summary)
	}
	streamed := func(i int) error {
		raw, err := post(hs.URL+"/v1/run?stream=1", bodies[i])
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		var last struct {
			Type    string          `json:"type"`
			Summary json.RawMessage `json:"summary"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			return err
		}
		if last.Type != "result" {
			return fmt.Errorf("point %d: stream ended %q: %s", i, last.Type, last.Error)
		}
		return check(i, last.Summary)
	}
	sweep := func(i int) error {
		j := (i + 1) % fps
		b, err := json.Marshal(serve.SweepRequest{Points: []serve.RunRequest{points[i], points[j], points[i]}})
		if err != nil {
			return err
		}
		raw, err := post(hs.URL+"/v1/sweep", b)
		var sr serve.SweepResponse
		if err == nil {
			err = json.Unmarshal(raw, &sr)
		}
		if err != nil {
			return err
		}
		if len(sr.Results) != 3 {
			return fmt.Errorf("sweep got %d results, want 3", len(sr.Results))
		}
		for k, p := range []int{i, j, i} {
			if err := check(p, sr.Results[k].Summary); err != nil {
				return err
			}
		}
		return nil
	}

	kinds := []func(int) error{plain, streamed, sweep}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds && errs[g] == nil; k++ {
				errs[g] = kinds[(g+2*k)%len(kinds)]((g + k) % fps)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	srv.Drain()
	if st := cacheStats(t, hs.URL); st.Entries > 2 || st.Evictions == 0 {
		t.Errorf("cache stats = %+v, want at most 2 entries and some evictions", st)
	}
}

// TestAdmissionRefusesDeterministically pins the 429 path: with one
// slot and no queue, a second distinct request is refused immediately
// with Retry-After set, and the first still completes.
func TestAdmissionRefusesDeterministically(t *testing.T) {
	bw := newBlockingWorker()
	hs, _, _ := newTestServer(t, serve.Config{MaxInFlight: 1, MaxQueued: -1}, bw)

	first := wireRequest(t, testParams, runOpts(testOptions), 1)
	second := testOptions
	second.Seed = 99
	secondBody := wireRequest(t, testParams, runOpts(second), 1)

	done := make(chan serve.RunResponse, 1)
	go func() {
		_, rr := postRun(t, hs.URL, first)
		done <- rr
	}()
	<-bw.started

	resp, _ := postRun(t, hs.URL, secondBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After header")
	}

	close(bw.release)
	rr := <-done
	if !bytes.Equal(rr.Summary, simBytes(t, testParams, testOptions)) {
		t.Fatalf("first request's summary corrupted by refused second")
	}
}

// TestStreamedAdaptiveRun pins the progress stream: monotone
// iteration counts, a converged terminal event, and a final summary
// byte-identical to the in-process adaptive run (same stopping
// boundary as the CLI).
func TestStreamedAdaptiveRun(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{})
	opts := sim.Options{
		Iterations:      60000,
		MissionTime:     2e5,
		Seed:            20170327,
		TargetHalfWidth: 1.5e-5,
	}
	body := wireRequest(t, testParams, runOpts(opts), 8)
	want := simBytes(t, testParams, opts)

	resp, err := http.Post(hs.URL+"/v1/run?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type event struct {
		Type       string          `json:"type"`
		Iterations int             `json:"iterations"`
		Cap        int             `json:"cap"`
		HalfWidth  *float64        `json:"half_width"`
		Converged  bool            `json:"converged"`
		Final      bool            `json:"final"`
		Cached     bool            `json:"cached"`
		Summary    json.RawMessage `json:"summary"`
		Error      string          `json:"error"`
	}
	var events []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least one progress + result", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "result" {
		t.Fatalf("terminal event type = %q (error: %s)", last.Type, last.Error)
	}
	if !bytes.Equal(last.Summary, want) {
		t.Fatalf("streamed summary differs from in-process run:\n got %s\nwant %s", last.Summary, want)
	}
	prev := 0
	sawProgress := false
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "progress" {
			t.Fatalf("unexpected event type %q before result", ev.Type)
		}
		sawProgress = true
		if ev.Iterations < prev {
			t.Fatalf("progress went backwards: %d after %d", ev.Iterations, prev)
		}
		prev = ev.Iterations
	}
	if !sawProgress {
		t.Fatalf("no progress events before the result")
	}
	final := events[len(events)-2]
	if !final.Final || !final.Converged {
		t.Fatalf("last progress event = %+v, want final and converged", final)
	}
	var sum sim.Summary
	if err := json.Unmarshal(last.Summary, &sum); err != nil {
		t.Fatalf("decode streamed summary: %v", err)
	}
	if final.Iterations != sum.Iterations {
		t.Fatalf("final progress iterations %d != summary iterations %d", final.Iterations, sum.Iterations)
	}
}

// TestSweepWithDuplicatePoint pins /v1/sweep: per-point results in
// request order, duplicates coalesced to identical bytes.
func TestSweepWithDuplicatePoint(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{})
	wp, err := shard.EncodeParams(testParams)
	if err != nil {
		t.Fatalf("EncodeParams: %v", err)
	}
	other := testOptions
	other.Seed = 7
	req := serve.SweepRequest{Points: []serve.RunRequest{
		{Params: wp, Options: runOpts(testOptions), Shards: 2},
		{Params: wp, Options: runOpts(other), Shards: 2},
		{Params: wp, Options: runOpts(testOptions), Shards: 5}, // duplicate of point 0 modulo schedule
	}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var sr serve.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode sweep response: %v", err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(sr.Results))
	}
	if !bytes.Equal(sr.Results[0].Summary, simBytes(t, testParams, testOptions)) {
		t.Fatalf("point 0 summary differs from in-process run")
	}
	if !bytes.Equal(sr.Results[1].Summary, simBytes(t, testParams, other)) {
		t.Fatalf("point 1 summary differs from in-process run")
	}
	if sr.Results[0].Fingerprint != sr.Results[2].Fingerprint {
		t.Fatalf("duplicate points got different fingerprints")
	}
	if !bytes.Equal(sr.Results[0].Summary, sr.Results[2].Summary) {
		t.Fatalf("duplicate points got different bytes")
	}
}

// TestDrainRefusesNewRuns pins graceful drain: new work is refused
// with 503, while cache hits keep being served.
func TestDrainRefusesNewRuns(t *testing.T) {
	hs, srv, _ := newTestServer(t, serve.Config{})
	body := wireRequest(t, testParams, runOpts(testOptions), 2)
	if resp, _ := postRun(t, hs.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run status = %d", resp.StatusCode)
	}

	srv.BeginDrain()

	// Cached result: still served.
	resp, rr := postRun(t, hs.URL, body)
	if resp.StatusCode != http.StatusOK || !rr.Cached {
		t.Fatalf("cache hit during drain: status %d, cached %v", resp.StatusCode, rr.Cached)
	}

	// New work: refused.
	fresh := testOptions
	fresh.Seed = 4242
	resp2, _ := postRun(t, hs.URL, wireRequest(t, testParams, runOpts(fresh), 2))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new run during drain: status %d, want 503", resp2.StatusCode)
	}
}

// TestMalformedRequests pins the 400/405 surface.
func TestMalformedRequests(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{})
	post := func(path, body string) int {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	goodParams, _ := shard.EncodeParams(testParams)
	pj, _ := json.Marshal(goodParams)
	// A valid run padded past the 1 MiB /v1/run body bound is refused
	// before it is buffered, not decoded.
	validRun := fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1}}`, pj)
	pad := strings.Repeat(" ", 1<<20)

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"syntax error", "/v1/run", `{"params": nope}`, 400},
		{"unknown field", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1}, "bogus": 1}`, pj), 400},
		{"unknown option", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1, "workers": 4}}`, pj), 400},
		{"zero iterations", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"mission_time": 1000, "seed": 1}}`, pj), 400},
		{"bad kernel", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1, "kernel": "warp"}}`, pj), 400},
		{"negative histogram bins", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1, "histogram_bins": -1}}`, pj), 400},
		{"histogram bins over cap", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1, "histogram_bins": 1099511627776}}`, pj), 400},
		{"negative histogram max hours", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1, "histogram_bins": 8, "histogram_max_hours": -5}}`, pj), 400},
		{"negative shards", "/v1/run", fmt.Sprintf(`{"params": %s, "options": {"iterations": 10, "mission_time": 1000, "seed": 1}, "shards": -1}`, pj), 400},
		{"bad distribution", "/v1/run", `{"params": {"disks": 4, "ttf": {"family": "exponential", "params": [-1]}, "repair": {"family": "exponential", "params": [1]}, "tape_restore": {"family": "exponential", "params": [1]}}, "options": {"iterations": 10, "mission_time": 1000, "seed": 1}}`, 400},
		{"empty sweep", "/v1/sweep", `{"points": []}`, 400},
		{"bad sweep point", "/v1/sweep", fmt.Sprintf(`{"points": [{"params": %s, "options": {"mission_time": 1000, "seed": 1}}]}`, pj), 400},
		{"oversized run", "/v1/run", pad + validRun, 413},
		{"run with a trailing object", "/v1/run", validRun + ` {"params": 7} garbage`, 400},
		{"sweep with trailing garbage", "/v1/sweep", `{"points": [` + validRun + `]} garbage`, 400},
		{"run with a trailing newline", "/v1/run", validRun + "\n", 200},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, got, tc.want)
		}
	}
	// A sweep body may be MaxSweepPoints times the run bound: with two
	// points allowed, 1.5 MiB of padding passes and 2 MiB does not.
	small, _, _ := newTestServer(t, serve.Config{MaxSweepPoints: 2})
	sweep := `{"points": [` + validRun + `]}`
	for _, tc := range []struct {
		pad  int
		want int
	}{{3 << 19, 200}, {2 << 20, 413}} {
		resp, err := http.Post(small.URL+"/v1/sweep", "application/json", strings.NewReader(strings.Repeat(" ", tc.pad)+sweep))
		if err != nil {
			t.Fatalf("POST /v1/sweep: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("sweep padded by %d bytes: status = %d, want %d", tc.pad, resp.StatusCode, tc.want)
		}
	}
	for _, path := range []string{"/v1/run", "/v1/sweep"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status = %d, want 405", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/cache", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/cache: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/cache: status = %d, want 405", resp.StatusCode)
	}
}

// TestDegenerateSummaryServes pins the all-up edge case: a run that
// never observes downtime has Nines = +Inf, which plain encoding/json
// refuses; Summary's marshaller emits null instead and the service
// must return 200, identical to the in-process encoding.
func TestDegenerateSummaryServes(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{})
	p := sim.PaperDefaults(4, 1e-9, 0) // failures effectively never happen
	o := sim.Options{Iterations: 200, MissionTime: 1000, Seed: 5}
	resp, rr := postRun(t, hs.URL, wireRequest(t, p, runOpts(o), 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(rr.Summary), `"Nines":null`) {
		t.Fatalf("degenerate summary = %s, want Nines null", rr.Summary)
	}
	if !bytes.Equal(rr.Summary, simBytes(t, p, o)) {
		t.Fatalf("degenerate summary differs from in-process encoding")
	}
}

// TestHealthz pins the health endpoint's states.
func TestHealthz(t *testing.T) {
	hs, srv, _ := newTestServer(t, serve.Config{})
	get := func() (int, string) {
		resp, err := http.Get(hs.URL + "/v1/healthz")
		if err != nil {
			t.Fatalf("GET /v1/healthz: %v", err)
		}
		defer resp.Body.Close()
		var st map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st["status"]
	}
	if code, status := get(); code != 200 || status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, status)
	}
	srv.BeginDrain()
	if code, status := get(); code != 200 || status != "draining" {
		t.Fatalf("healthz during drain = %d %q, want 200 draining", code, status)
	}
}

// TestBiasedRun pins the service's importance-sampling surface: a
// biased request answers the byte-exact biased in-process Summary
// (factor echoed in it), biased and unbiased runs of one
// configuration get distinct cache entries, and a biased request
// against a generic-kernel configuration is a 400 at compile time.
func TestBiasedRun(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{})

	bo := runOpts(testOptions)
	bo.Bias = "4"
	so := testOptions
	so.Bias = 4
	want := simBytes(t, testParams, so)

	resp, rr := postRun(t, hs.URL, wireRequest(t, testParams, bo, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("biased run status = %d", resp.StatusCode)
	}
	if !bytes.Equal(rr.Summary, want) {
		t.Fatalf("biased summary mismatch:\n got %s\nwant %s", rr.Summary, want)
	}
	var sum sim.Summary
	if err := json.Unmarshal(rr.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Bias != 4 || !(sum.ESS > 0) {
		t.Fatalf("biased summary does not report the weighting: factor %v, ESS %v", sum.Bias, sum.ESS)
	}

	// The unbiased twin of the same configuration is a different run:
	// different fingerprint, no cache aliasing.
	respU, rrU := postRun(t, hs.URL, wireRequest(t, testParams, runOpts(testOptions), 2))
	if respU.StatusCode != http.StatusOK {
		t.Fatalf("unbiased run status = %d", respU.StatusCode)
	}
	if rrU.Fingerprint == rr.Fingerprint {
		t.Error("biased and unbiased runs share a fingerprint")
	}
	if rrU.Cached {
		t.Error("unbiased run answered from the biased run's cache entry")
	}
	if bytes.Equal(rrU.Summary, rr.Summary) {
		t.Error("biased and unbiased summaries are identical")
	}

	// Repeating the biased request hits its own cache entry.
	resp2, rr2 := postRun(t, hs.URL, wireRequest(t, testParams, bo, 2))
	if resp2.StatusCode != http.StatusOK || !rr2.Cached {
		t.Errorf("biased repeat: status %d, cached %v", resp2.StatusCode, rr2.Cached)
	}

	// A malformed factor and a generic-kernel configuration both fail
	// before any work is scheduled.
	badOpts := runOpts(testOptions)
	badOpts.Bias = "0.5"
	if resp, _ := postRun(t, hs.URL, wireRequest(t, testParams, badOpts, 2)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bias 0.5: status %d, want 400", resp.StatusCode)
	}
	genericOpts := runOpts(testOptions)
	genericOpts.Bias = "4"
	genericOpts.Kernel = "generic"
	if resp, _ := postRun(t, hs.URL, wireRequest(t, testParams, genericOpts, 2)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("biased generic-kernel request: status %d, want 400", resp.StatusCode)
	}
}
