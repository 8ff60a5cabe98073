package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
)

// failingWorker errors every job; a server whose pool holds only this
// worker can serve nothing except cache hits.
type failingWorker struct{}

func (failingWorker) Name() string                          { return "failing" }
func (failingWorker) Run(*shard.Job) ([]sim.Partial, error) { return nil, errors.New("boom") }
func (failingWorker) Close() error                          { return nil }

// logBuf is a goroutine-safe server log sink.
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServer builds a server whose lifecycle the test drives manually
// (restart tests shut servers down mid-test).
func startServer(t *testing.T, cfg serve.Config, workers ...shard.Worker) (*httptest.Server, *serve.Server, *shard.Pool) {
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
	return httptest.NewServer(srv), srv, pool
}

// TestCachePersistsAcrossRestart pins the restart contract: a result
// computed by one server generation is served as a cache hit by the
// next — proven by giving the restarted server a pool that cannot run
// anything — and a torn snapshot tail costs only the torn entry.
func TestCachePersistsAcrossRestart(t *testing.T) {
	cf := filepath.Join(t.TempDir(), "cache.ndjson")
	body := wireRequest(t, testParams, runOpts(testOptions), 4)
	want := simBytes(t, testParams, testOptions)

	hs1, srv1, pool1 := startServer(t, serve.Config{CacheFile: cf})
	resp, rr := postRun(t, hs1.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run status = %d", resp.StatusCode)
	}
	if !bytes.Equal(rr.Summary, want) {
		t.Fatalf("first run summary diverged from sim")
	}
	hs1.Close()
	srv1.Drain() // drain snapshots the cache
	pool1.Close()
	if _, err := os.Stat(cf); err != nil {
		t.Fatalf("drain left no snapshot: %v", err)
	}

	// Second generation: its pool fails every job, so only a cache hit
	// can answer.
	hs2, srv2, pool2 := startServer(t, serve.Config{CacheFile: cf}, failingWorker{})
	if st := cacheStats(t, hs2.URL); st.Loaded != 1 {
		t.Fatalf("restarted server loaded %d entries, want 1", st.Loaded)
	}
	resp, rr = postRun(t, hs2.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed run status = %d, want a cache hit", resp.StatusCode)
	}
	if !rr.Cached {
		t.Error("replayed run not marked cached")
	}
	if !bytes.Equal(rr.Summary, want) {
		t.Fatalf("replayed summary diverged from the first generation")
	}
	hs2.Close()
	srv2.Drain()
	pool2.Close()

	// Tear the snapshot's tail (a crash mid-append); the surviving
	// prefix must still load and serve.
	f, err := os.OpenFile(cf, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"entry","fp":"torn`)
	f.Close()
	hs3, srv3, pool3 := startServer(t, serve.Config{CacheFile: cf}, failingWorker{})
	defer func() { hs3.Close(); srv3.Drain(); pool3.Close() }()
	if st := cacheStats(t, hs3.URL); st.Loaded != 1 {
		t.Fatalf("torn snapshot loaded %d entries, want 1", st.Loaded)
	}
	resp, rr = postRun(t, hs3.URL, body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(rr.Summary, want) {
		t.Fatalf("torn-tail reload cannot serve the prior result (status %d)", resp.StatusCode)
	}
}

// TestSnapshotBitFlipNeverServed pins the snapshot checksum: with any
// one bit of the file flipped, a restarted server either refuses to
// start (a damaged header) or answers the request with the original
// bytes or an error, never with other bytes.
func TestSnapshotBitFlipNeverServed(t *testing.T) {
	cf := filepath.Join(t.TempDir(), "cache.ndjson")
	o := sim.Options{Iterations: 200, MissionTime: 2e5, Seed: 11}
	body := wireRequest(t, testParams, runOpts(o), 1)
	want := simBytes(t, testParams, o)
	hs, srv, pool := startServer(t, serve.Config{CacheFile: cf})
	resp, rr := postRun(t, hs.URL, body)
	hs.Close()
	srv.Drain()
	pool.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(rr.Summary, want) {
		t.Fatalf("first run: status %d, summary %s", resp.StatusCode, rr.Summary)
	}
	orig, err := os.ReadFile(cf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		damaged := bytes.Clone(orig)
		damaged[i] ^= 1 << (i % 8)
		if err := os.WriteFile(cf, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		pool, err := shard.NewPool([]shard.Worker{failingWorker{}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Config{Pool: pool, CacheFile: cf})
		if err == nil {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			var rr serve.RunResponse
			if rec.Code == http.StatusOK && (json.Unmarshal(rec.Body.Bytes(), &rr) != nil || !bytes.Equal(rr.Summary, want)) {
				t.Fatalf("byte %d with bit %d flipped: served %s", i, i%8, rec.Body.Bytes())
			}
		}
		pool.Close()
	}
}

// TestAuthTokenGatesV1 pins the bearer gate: /v1 endpoints demand the
// token and reject everything else with one uniform body, while health
// endpoints stay open for probes.
func TestAuthTokenGatesV1(t *testing.T) {
	hs, _, _ := newTestServer(t, serve.Config{AuthToken: "s3cret"})

	get := func(path, token string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, hs.URL+path, nil)
		if token != "" {
			req.Header.Set("Authorization", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	resp, missing := get("/v1/cache", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing token: status %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 missing WWW-Authenticate challenge")
	}
	resp, wrong := get("/v1/cache", "Bearer nope")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", resp.StatusCode)
	}
	if missing != wrong {
		t.Errorf("401 bodies differ between missing and wrong tokens:\n%q\n%q", missing, wrong)
	}
	if resp, _ := get("/v1/cache", "Bearer s3cret"); resp.StatusCode != http.StatusOK {
		t.Fatalf("correct token: status %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("/v1/cache", "bearer s3cret"); resp.StatusCode != http.StatusOK {
		t.Fatalf("case-insensitive scheme: status %d, want 200", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/v1/healthz", "/readyz"} {
		if resp, _ := get(path, ""); resp.StatusCode == http.StatusUnauthorized {
			t.Errorf("%s is gated; health must stay open", path)
		}
	}
	// A run with the token flows end to end.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/run", bytes.NewReader(wireRequest(t, testParams, runOpts(testOptions), 2)))
	req.Header.Set("Authorization", "Bearer s3cret")
	req.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("authorized run: status %d, want 200", resp2.StatusCode)
	}
}

// TestPerClientAdmission pins per-client fairness: one client may not
// hold more than its bound of executing+queued runs even when global
// slots remain.
func TestPerClientAdmission(t *testing.T) {
	bw := newBlockingWorker()
	hs, _, _ := newTestServer(t, serve.Config{MaxInFlight: 4, MaxInFlightPerClient: 1}, bw)

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

	resp, err := http.Post(hs.URL+"/v1/run", "application/json", bytes.NewReader(secondBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same client's second run status = %d, want 429", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "client at capacity") {
		t.Errorf("429 body %q does not name the per-client bound", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	close(bw.release)
	rr := <-done
	if !bytes.Equal(rr.Summary, simBytes(t, testParams, testOptions)) {
		t.Fatalf("first run corrupted by the refused second")
	}
	// With the slot free again the client may run anew.
	resp2, rr2 := postRun(t, hs.URL, secondBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("run after release: status %d, want 200", resp2.StatusCode)
	}
	if len(rr2.Summary) == 0 {
		t.Error("run after release returned no summary")
	}
}

// TestClientDisconnectCancelsRun pins deadline propagation end to end:
// when the only client of a flight goes away, the leader's context is
// cancelled and the shard run aborts — and the server stays healthy.
func TestClientDisconnectCancelsRun(t *testing.T) {
	bw := newBlockingWorker()
	logw := &logBuf{}
	hs, _, _ := newTestServer(t, serve.Config{Log: logw}, bw)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/run",
		bytes.NewReader(wireRequest(t, testParams, runOpts(testOptions), 1)))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-bw.started // the run is on the worker
	cancel()     // client vanishes
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned without error")
	}
	// The abandoned flight must abort its run promptly.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logw.String(), "cancelled") {
		if time.Now().After(deadline) {
			t.Fatalf("run never aborted after client disconnect; log:\n%s", logw.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pool survives the abort: the identical request recomputes.
	close(bw.release)
	resp, rr := postRun(t, hs.URL, wireRequest(t, testParams, runOpts(testOptions), 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerun after disconnect: status %d", resp.StatusCode)
	}
	if !bytes.Equal(rr.Summary, simBytes(t, testParams, testOptions)) {
		t.Fatal("rerun after disconnect diverged from sim")
	}
	if rr.Cached {
		t.Error("aborted run polluted the cache")
	}
}

// TestRunTimeoutAbortsRun pins the -run-timeout bound: an overdue run
// fails with the deadline cause instead of hanging, and the server
// keeps serving.
func TestRunTimeoutAbortsRun(t *testing.T) {
	bw := newBlockingWorker()
	hs, _, _ := newTestServer(t, serve.Config{RunTimeout: 100 * time.Millisecond}, bw)

	body := wireRequest(t, testParams, runOpts(testOptions), 1)
	resp, err := http.Post(hs.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("overdue run status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "cancelled") {
		t.Errorf("overdue run body %q does not name the cancellation", raw)
	}
	close(bw.release)
	// A fresh (different) request must still be served.
	second := testOptions
	second.Seed = 7
	resp2, rr := postRun(t, hs.URL, wireRequest(t, testParams, runOpts(second), 1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("run after timeout: status %d", resp2.StatusCode)
	}
	if !bytes.Equal(rr.Summary, simBytes(t, testParams, second)) {
		t.Fatal("run after timeout diverged from sim")
	}
}

// TestReadyzReflectsState pins the readiness contract: ready while the
// pool is populated, unready once draining begins.
func TestReadyzReflectsState(t *testing.T) {
	hs, srv, _ := newTestServer(t, serve.Config{})
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", resp.StatusCode)
	}
	srv.BeginDrain()
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "draining") {
		t.Errorf("draining /readyz body %q does not say so", raw)
	}
}
