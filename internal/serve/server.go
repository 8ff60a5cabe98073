package serve

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// Pool is the shared shard worker pool every request executes on.
	// Required; the Server does not own it (Close it after Drain).
	Pool *shard.Pool
	// CacheEntries bounds the LRU result cache (default 256).
	CacheEntries int
	// MaxInFlight bounds concurrently executing runs (default 4).
	// Cache hits and singleflight joins bypass admission entirely.
	MaxInFlight int
	// MaxQueued bounds requests waiting for an execution slot; beyond
	// it new work is refused with 429 and a 5 s Retry-After (default 16;
	// negative means refuse immediately once the slots are full).
	MaxQueued int
	// MaxSweepPoints bounds the points of one /v1/sweep request
	// (default 64), and its body at this many times the 1 MiB /v1/run
	// body bound.
	MaxSweepPoints int
	// MaxInFlightPerClient additionally bounds admission per client —
	// the bearer token when authenticated, the remote host otherwise —
	// counting both executing and queued work, so one client cannot
	// monopolize the global slots. 0 disables the per-client bound.
	MaxInFlightPerClient int
	// AuthToken, when non-empty, locks every /v1 endpoint except
	// health behind `Authorization: Bearer <token>` (constant-time
	// compare; uniform 401 body). Health endpoints stay open so
	// orchestrators can probe without credentials.
	AuthToken string
	// RunTimeout bounds each run's execution (submission to summary).
	// A run past its deadline is aborted through the shard cancel path
	// and reported as an error. 0 means no deadline.
	RunTimeout time.Duration
	// CacheFile, when non-empty, persists the result cache across
	// restarts: an existing snapshot is loaded at construction, and the
	// cache is re-snapshotted every 32 insertions and on Drain (ndjson,
	// temp-file + fsync + rename, a CRC-32C per entry).
	CacheFile string
	// Log receives request-level diagnostics (default: discard).
	Log io.Writer
}

// Server is the availability-simulation HTTP service. It implements
// http.Handler; mount it directly or under a prefix.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache

	mu        sync.Mutex // guards queued and perClient
	queued    int
	perClient map[string]int

	slots     chan struct{}
	drainCh   chan struct{}
	drainOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer builds a Server on the given pool, applying Config
// defaults for unset fields.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("serve: Config.Pool is required")
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxQueued < 0 {
		cfg.MaxQueued = 0
	} else if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 16
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 64
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		cache:     newResultCache(cfg.CacheEntries, cfg.CacheFile, cfg.Log),
		perClient: make(map[string]int),
		slots:     make(chan struct{}, cfg.MaxInFlight),
		drainCh:   make(chan struct{}),
	}
	if cfg.CacheFile != "" {
		if err := s.cache.load(); err != nil {
			return nil, err
		}
		if n := s.cache.stats().Loaded; n > 0 {
			fmt.Fprintf(cfg.Log, "serve: cache: loaded %d entries from %s\n", n, cfg.CacheFile)
		}
	}
	// The module's go directive predates method patterns in ServeMux,
	// so routes are plain paths with explicit method checks.
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/cache", s.handleCache)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// openPath reports whether path is served without authentication:
// liveness and readiness probes must work for orchestrators that hold
// no credentials.
func openPath(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/v1/healthz":
		return true
	}
	return false
}

// authorized implements the bearer check. Both sides are hashed before
// the comparison, so its duration depends on neither the length nor
// the content of what the client sent.
func (s *Server) authorized(r *http.Request) bool {
	token, ok := bearerToken(r)
	if !ok {
		return false
	}
	got := sha256.Sum256([]byte(token))
	want := sha256.Sum256([]byte(s.cfg.AuthToken))
	return subtle.ConstantTimeCompare(got[:], want[:]) == 1
}

func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// clientKey identifies the requester for per-client admission: the
// (hashed) bearer token when authentication is on, the remote host
// otherwise.
func (s *Server) clientKey(r *http.Request) string {
	if s.cfg.AuthToken != "" {
		if token, ok := bearerToken(r); ok {
			sum := sha256.Sum256([]byte(token))
			return "t:" + hex.EncodeToString(sum[:8])
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "h:" + host
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AuthToken != "" && !openPath(r.URL.Path) && !s.authorized(r) {
		// One body for a missing, malformed or wrong credential: the
		// response must not reveal which.
		w.Header().Set("WWW-Authenticate", `Bearer realm="herald"`)
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "unauthorized"})
		return
	}
	s.mux.ServeHTTP(w, r)
}

// BeginDrain refuses new runs (503) while letting cache hits, flight
// joins and already-admitted work finish. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Drain begins draining and blocks until every in-flight run has
// finished, then snapshots the result cache (when persistence is on)
// so a restart reloads everything the process computed. Call after
// shutting down the HTTP listener; the pool can be closed once Drain
// returns.
func (s *Server) Drain() {
	s.BeginDrain()
	s.wg.Wait()
	s.cache.snapshotNow()
}

// CacheStats snapshots the result cache.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// RunOptions is the wire form of the result-affecting simulation
// options. Workers is deliberately absent: parallelism is the
// server's business and never part of a run's identity.
type RunOptions struct {
	Iterations  int     `json:"iterations"`
	MissionTime float64 `json:"mission_time"`
	Seed        uint64  `json:"seed"`
	Confidence  float64 `json:"confidence,omitempty"`
	Kernel      string  `json:"kernel,omitempty"`
	// Bias selects failure-biased importance sampling: "" (off),
	// "auto", or a finite factor >= 1. Part of the run's identity —
	// biased and unbiased runs never share a cache entry.
	Bias              string  `json:"bias,omitempty"`
	TargetHalfWidth   float64 `json:"target_half_width,omitempty"`
	MaxIters          int     `json:"max_iters,omitempty"`
	HistogramBins     int     `json:"histogram_bins,omitempty"`
	HistogramMaxHours float64 `json:"histogram_max_hours,omitempty"`
}

// RunRequest is the body of POST /v1/run and one point of /v1/sweep.
type RunRequest struct {
	Params  shard.WireParams `json:"params"`
	Options RunOptions       `json:"options"`
	// Shards optionally fixes the run's claim divisor
	// (shard.RunSpec.Shards): each claim takes 1/Shards of the work
	// left, and 0 means the pool's live slots. The result is
	// bit-identical either way and the cache key ignores it.
	Shards int `json:"shards,omitempty"`
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Cached reports the summary came from the result cache. A
	// summary produced by joining a concurrent identical run reports
	// false: it was computed (once), not replayed.
	Cached  bool            `json:"cached"`
	Summary json.RawMessage `json:"summary"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Points []RunRequest `json:"points"`
}

// SweepResponse is the body of a successful POST /v1/sweep; Results
// align with the request's Points.
type SweepResponse struct {
	Results []RunResponse `json:"results"`
}

// streamEvent is one line of a streamed run (ndjson) or one SSE data
// payload. Progress events carry iterations/cap/half_width/converged;
// the terminal event is type "result" (or "error").
type streamEvent struct {
	Type        string          `json:"type"`
	Iterations  int             `json:"iterations,omitempty"`
	Cap         int             `json:"cap,omitempty"`
	HalfWidth   *float64        `json:"half_width,omitempty"`
	Converged   bool            `json:"converged,omitempty"`
	Final       bool            `json:"final,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Summary     json.RawMessage `json:"summary,omitempty"`
	Error       string          `json:"error,omitempty"`
}

type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(he.retryAfter.Seconds())))
	}
	writeJSON(w, he.code, map[string]string{"error": he.msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// maxRunBody bounds the bytes of a /v1/run body, far above any real
// request; a /v1/sweep body may carry MaxSweepPoints times as many.
const maxRunBody = 1 << 20

// retryAfter is the hint sent with 429 responses.
const retryAfter = 5 * time.Second

// decodeBody decodes r's JSON body into v, refusing unknown fields and
// anything but whitespace after the value (400), and bodies over limit
// bytes (413) before buffering more.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return nil
		}
		if err == nil {
			err = errors.New("serve: data after the request body")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &httpError{code: http.StatusRequestEntityTooLarge, msg: err.Error()}
	}
	return &httpError{code: http.StatusBadRequest, msg: err.Error()}
}

// compile validates a request and lowers it to a pool RunSpec plus its
// canonical fingerprint. shard.Identify resolves the kernel to its
// concrete form first, so "auto" and the kernel it resolves to share
// one cache key (they are the same run), and refuses a biased run on
// the generic kernel here, so the caller gets a 400, not a mid-run
// failure from the pool.
func compile(req *RunRequest) (shard.RunSpec, string, error) {
	p, err := req.Params.Decode()
	if err != nil {
		return shard.RunSpec{}, "", err
	}
	ks := req.Options.Kernel
	if ks == "" {
		ks = "auto"
	}
	kernel, err := sim.ParseKernel(ks)
	if err != nil {
		return shard.RunSpec{}, "", err
	}
	bias, err := sim.ParseBias(req.Options.Bias)
	if err != nil {
		return shard.RunSpec{}, "", err
	}
	if req.Shards < 0 {
		return shard.RunSpec{}, "", fmt.Errorf("serve: shards must be non-negative")
	}
	o, fp, err := shard.Identify(p, sim.Options{
		Iterations:        req.Options.Iterations,
		MissionTime:       req.Options.MissionTime,
		Seed:              req.Options.Seed,
		Confidence:        req.Options.Confidence,
		Kernel:            kernel,
		Bias:              bias,
		TargetHalfWidth:   req.Options.TargetHalfWidth,
		MaxIters:          req.Options.MaxIters,
		HistogramBins:     req.Options.HistogramBins,
		HistogramMaxHours: req.Options.HistogramMaxHours,
	})
	if err != nil {
		return shard.RunSpec{}, "", err
	}
	return shard.RunSpec{Params: p, Options: o, Shards: req.Shards}, fp, nil
}

// acquire claims an execution slot, queueing up to MaxQueued waiters.
// Beyond the queue bound it refuses deterministically with 429. client,
// when per-client admission is configured, additionally charges the
// request against that client's own bound — covering its queued wait
// too, so a client cannot fill the queue either.
func (s *Server) acquire(ctx context.Context, client string) (func(), *httpError) {
	select {
	case <-s.drainCh:
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	default:
	}
	clientRelease := func() {}
	if s.cfg.MaxInFlightPerClient > 0 && client != "" {
		s.mu.Lock()
		if s.perClient[client] >= s.cfg.MaxInFlightPerClient {
			s.mu.Unlock()
			return nil, &httpError{
				code:       http.StatusTooManyRequests,
				msg:        fmt.Sprintf("client at capacity: %d in flight", s.cfg.MaxInFlightPerClient),
				retryAfter: retryAfter,
			}
		}
		s.perClient[client]++
		s.mu.Unlock()
		clientRelease = func() {
			s.mu.Lock()
			if s.perClient[client]--; s.perClient[client] <= 0 {
				delete(s.perClient, client)
			}
			s.mu.Unlock()
		}
	}
	release, herr := s.acquireGlobal(ctx)
	if herr != nil {
		clientRelease()
		return nil, herr
	}
	return func() { release(); clientRelease() }, nil
}

// acquireGlobal is the client-agnostic slot claim.
func (s *Server) acquireGlobal(ctx context.Context) (func(), *httpError) {
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release, nil
	default:
	}
	s.mu.Lock()
	if s.queued >= s.cfg.MaxQueued {
		s.mu.Unlock()
		return nil, &httpError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("at capacity: %d in flight, %d queued", s.cfg.MaxInFlight, s.cfg.MaxQueued),
			retryAfter: retryAfter,
		}
	}
	s.queued++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
	}()
	select {
	case s.slots <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: "client went away"}
	case <-s.drainCh:
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	}
}

// resolve returns fp's flight, joined for the caller, who must leave
// it, and whether it is a hit: a finished run. When the table has no
// flight for fp, admit grants an execution slot (nil: the caller rides
// on a slot it already holds, as sweep points do) and the request looks
// again: if another request led or finished the run meanwhile, the
// slot goes back and that flight is returned; otherwise this request
// leads the run on the slot.
func (s *Server) resolve(fp string, spec *shard.RunSpec, admit func() (func(), *httpError)) (*flight, bool, *httpError) {
	if fl, hit := s.cache.get(fp); fl != nil {
		return fl, hit, nil
	}
	release := func() {}
	if admit != nil {
		var herr *httpError
		if release, herr = admit(); herr != nil {
			return nil, false, herr
		}
	}
	fl, hit, led := s.cache.lead(fp)
	if !led {
		release()
		return fl, hit, nil
	}
	s.wg.Add(1)
	go s.execute(fl, spec, release)
	return fl, false, nil
}

// execute is the flight leader: it runs spec once on the pool and
// records the outcome in the table. The run executes under the flight's
// context, bounded by RunTimeout, so an abandoned or overdue run tears
// down its in-flight shard jobs instead of leaking them.
func (s *Server) execute(fl *flight, spec *shard.RunSpec, release func()) {
	defer s.wg.Done()
	defer release()
	ctx := fl.ctx
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}
	body, err := s.runOnce(ctx, spec, fl.publish)
	s.cache.finish(fl, body, err)
	if err != nil {
		fmt.Fprintf(s.cfg.Log, "serve: run %s failed: %v\n", fl.fp, err)
	}
}

func (s *Server) runOnce(ctx context.Context, spec *shard.RunSpec, progress func(shard.RunProgress)) ([]byte, error) {
	tk, err := s.cfg.Pool.Submit(ctx, *spec, progress)
	if err != nil {
		return nil, err
	}
	res, err := tk.Wait()
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Summary)
}

// await blocks until fl has finished or ctx ends, returning the run's
// summary bytes or its error.
func await(ctx context.Context, fl *flight) ([]byte, error) {
	select {
	case <-fl.done:
		return fl.body, fl.err
	case <-ctx.Done():
		return nil, errors.New("serve: client went away")
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "POST only"})
		return
	}
	var req RunRequest
	if herr := decodeBody(w, r, maxRunBody, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	spec, fp, err := compile(&req)
	if err != nil {
		s.writeError(w, &httpError{code: http.StatusBadRequest, msg: err.Error()})
		return
	}
	fl, hit, herr := s.resolve(fp, &spec, func() (func(), *httpError) {
		return s.acquire(r.Context(), s.clientKey(r))
	})
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer fl.leave()
	if r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamRun(w, r, fl, hit)
		return
	}
	body, err := await(r.Context(), fl)
	if err != nil {
		s.writeError(w, &httpError{code: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Fingerprint: fp, Cached: hit, Summary: body})
}

// streamRun serves one run as a live event stream: ndjson by default,
// SSE when the client asks for text/event-stream. Progress events are
// coalesced (freshest wins, monotone); the terminal event carries the
// same summary bytes a non-streaming request would have received.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request, fl *flight, hit bool) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	flusher, _ := w.(http.Flusher)
	emit := func(ev streamEvent) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			fmt.Fprintf(w, "%s\n", b)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	if hit {
		emit(streamEvent{Type: "result", Fingerprint: fl.fp, Cached: true, Summary: fl.body})
		return
	}
	sub := fl.subscribe()
	defer fl.unsubscribe(sub)
	for {
		select {
		case pr := <-sub:
			emit(progressEvent(pr))
		case <-fl.done:
			select {
			case pr := <-sub:
				emit(progressEvent(pr))
			default:
			}
			if fl.err != nil {
				emit(streamEvent{Type: "error", Fingerprint: fl.fp, Error: fl.err.Error()})
			} else {
				emit(streamEvent{Type: "result", Fingerprint: fl.fp, Summary: fl.body})
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

func progressEvent(pr shard.RunProgress) streamEvent {
	ev := streamEvent{
		Type:       "progress",
		Iterations: pr.Iterations,
		Cap:        pr.Cap,
		Converged:  pr.Converged,
		Final:      pr.Final,
	}
	if !math.IsInf(pr.HalfWidth, 0) && !math.IsNaN(pr.HalfWidth) {
		hw := pr.HalfWidth
		ev.HalfWidth = &hw
	}
	return ev
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "POST only"})
		return
	}
	var req SweepRequest
	if herr := decodeBody(w, r, int64(s.cfg.MaxSweepPoints)*maxRunBody, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	if len(req.Points) == 0 {
		s.writeError(w, &httpError{code: http.StatusBadRequest, msg: "sweep has no points"})
		return
	}
	if len(req.Points) > s.cfg.MaxSweepPoints {
		s.writeError(w, &httpError{
			code: http.StatusBadRequest,
			msg:  fmt.Sprintf("sweep has %d points; limit is %d", len(req.Points), s.cfg.MaxSweepPoints),
		})
		return
	}
	specs := make([]shard.RunSpec, len(req.Points))
	fps := make([]string, len(req.Points))
	for i := range req.Points {
		spec, fp, err := compile(&req.Points[i])
		if err != nil {
			s.writeError(w, &httpError{
				code: http.StatusBadRequest,
				msg:  fmt.Sprintf("point %d: %v", i, err),
			})
			return
		}
		specs[i] = spec
		fps[i] = fp
	}
	// A sweep occupies one admission slot regardless of its point
	// count; the pool pipelines the points internally.
	release, herr := s.acquire(r.Context(), s.clientKey(r))
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer release()
	results := make([]RunResponse, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fl, hit, _ := s.resolve(fps[i], &specs[i], nil)
			defer fl.leave()
			body, err := await(r.Context(), fl)
			results[i], errs[i] = RunResponse{Fingerprint: fps[i], Cached: hit, Summary: body}, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.writeError(w, &httpError{
				code: http.StatusInternalServerError,
				msg:  fmt.Sprintf("point %d: %v", i, err),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, SweepResponse{Results: results})
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.cache.stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "GET only"})
		return
	}
	if err := s.cfg.Pool.Err(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "dead", "error": err.Error(),
		})
		return
	}
	status := "ok"
	select {
	case <-s.drainCh:
		status = "draining"
	default:
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// readyzResponse is the body of GET /readyz: whether the service can
// take work right now, and why not if it cannot.
type readyzResponse struct {
	Status        string `json:"status"` // "ready" | "unready"
	LiveSlots     int    `json:"live_slots"`
	SourceOpen    bool   `json:"source_open"`
	FallbackArmed bool   `json:"fallback_armed"`
	ActiveRuns    int    `json:"active_runs"`
	Draining      bool   `json:"draining"`
	Error         string `json:"error,omitempty"`
}

// handleReadyz is the readiness probe: 200 while the pool can advance
// a run (live workers, or a still-open elastic source that parks runs
// until a joiner arrives) and the server is not draining; 503
// otherwise, with the pool population in the body either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "GET only"})
		return
	}
	h := s.cfg.Pool.Health()
	resp := readyzResponse{
		LiveSlots:     h.LiveSlots,
		SourceOpen:    h.SourceOpen,
		FallbackArmed: h.FallbackArmed,
		ActiveRuns:    h.ActiveRuns,
	}
	select {
	case <-s.drainCh:
		resp.Draining = true
	default:
	}
	if h.Err != nil {
		resp.Error = h.Err.Error()
	}
	if h.Ready() && !resp.Draining {
		resp.Status = "ready"
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Status = "unready"
	writeJSON(w, http.StatusServiceUnavailable, resp)
}
