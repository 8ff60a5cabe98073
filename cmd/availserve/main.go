// Command availserve exposes the availability simulator as a
// long-lived HTTP/JSON service on a shared shard worker pool.
//
// Endpoints:
//
//	POST /v1/run      execute (or replay) one simulation; ?stream=1 or
//	                  Accept: text/event-stream streams progress
//	POST /v1/sweep    execute a batch of points in one request
//	GET  /v1/cache    result-cache statistics
//	GET  /v1/healthz  liveness and drain state (alias /healthz)
//	GET  /readyz      readiness: pool population and drain state
//
// Results are cached under the canonical run fingerprint and
// concurrent identical requests share a single execution; -cache-file
// persists the cache across restarts. Workers are local processes
// (-local-procs), dialed remotes (-shard-connect: availsim
// -shard-serve peers), and/or elastic joiners accepted on
// -shard-listen (availsim -shard-join, which reconnects with backoff
// by default). -local-fallback keeps runs progressing in-process if
// every worker departs; -auth-token locks the /v1 API; -run-timeout
// bounds each run and a client disconnect cancels its in-flight shard
// jobs. SIGTERM or SIGINT drains gracefully: in-flight runs finish,
// new runs get 503, then the process exits 0.
//
//	availserve -listen :8080
//	availserve -listen :8080 -shard-listen :9009 -shard-token s3cret -local-fallback 4
//	availserve -listen :8080 -shard-connect box1:9009,box2:9009 -auth-token t0ps3cret
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"herald/internal/serve"
	"herald/internal/shard"
)

func main() {
	shard.MaybeWorker()

	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		localProcs = flag.Int("local-procs", 0, "local worker processes (0 = GOMAXPROCS; with remote or joining workers, 0 means none)")

		shardConnect = flag.String("shard-connect", "", "comma-separated host:port list of remote TCP workers (availsim -shard-serve) to attach")
		shardListen  = flag.String("shard-listen", "", "accept elastic workers (availsim -shard-join) on this address")
		shardToken   = flag.String("shard-token", "", "shared secret authenticating shard connections; both ends must agree")
		shardTLSCert = flag.String("shard-tls-cert", "", "PEM certificate for TLS on -shard-listen (with -shard-tls-key); on -shard-connect, the client certificate for mutual TLS")
		shardTLSKey  = flag.String("shard-tls-key", "", "PEM private key paired with -shard-tls-cert")
		shardTLSCA   = flag.String("shard-tls-ca", "", "PEM CA bundle: -shard-connect verifies servers against it; -shard-listen additionally requires client certificates chained to it")
		shardHB      = flag.Duration("shard-heartbeat", 0, "shard liveness heartbeat interval (0 = 3s)")

		cacheEntries = flag.Int("cache-entries", 256, "result-cache capacity (fingerprint-keyed LRU)")
		cacheFile    = flag.String("cache-file", "", "persist the result cache to this ndjson snapshot across restarts")
		maxInFlight  = flag.Int("max-inflight", 4, "concurrently executing runs")
		maxQueue     = flag.Int("max-queue", 16, "requests waiting for a run slot before 429 (negative: refuse immediately)")
		maxPerClient = flag.Int("max-inflight-per-client", 0, "per-client bound on executing+queued runs (0 = no per-client bound)")
		maxSweep     = flag.Int("max-sweep-points", 64, "points allowed in one /v1/sweep request; its body may be this many MiB")
		runTimeout   = flag.Duration("run-timeout", 0, "per-run execution deadline; overdue runs abort via the shard cancel path (0 = none)")
		authToken    = flag.String("auth-token", "", "require 'Authorization: Bearer <token>' on /v1 endpoints (health stays open)")
		localFB      = flag.Int("local-fallback", 0, "arm an in-process worker with this parallelism when the pool drains (degraded mode; 0 = off)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "bound on the graceful drain after SIGTERM")
	)
	flag.Parse()

	dialNC, listenNC, err := shard.NetConfigs(shard.NetConfig{Token: *shardToken, HeartbeatInterval: *shardHB, Log: os.Stderr},
		*shardTLSCert, *shardTLSKey, *shardTLSCA)
	exitOn(err)
	workers, joiners, release, err := shard.WorkerSet{
		Local: *localProcs, Connect: *shardConnect, Listen: *shardListen, Dialer: dialNC, Listener: listenNC,
	}.Open()
	exitOn(err)

	pool, err := shard.NewPool(workers, joiners, &shard.PoolOptions{Log: os.Stderr, LocalFallback: *localFB})
	exitOn(err)

	srv, err := serve.NewServer(serve.Config{
		Pool:                 pool,
		CacheEntries:         *cacheEntries,
		CacheFile:            *cacheFile,
		MaxInFlight:          *maxInFlight,
		MaxQueued:            *maxQueue,
		MaxInFlightPerClient: *maxPerClient,
		MaxSweepPoints:       *maxSweep,
		RunTimeout:           *runTimeout,
		AuthToken:            *authToken,
		Log:                  os.Stderr,
	})
	exitOn(err)

	ln, err := net.Listen("tcp", *listen)
	exitOn(err)
	hs := &http.Server{Handler: srv}
	fmt.Fprintf(os.Stderr, "availserve: listening on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "availserve: %v received, draining\n", s)
	case err := <-serveErr:
		exitOn(err)
	}

	// Graceful drain: refuse new runs, let in-flight requests and
	// their runs finish (bounded), then release the pool and the
	// workers.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "availserve: shutdown: %v\n", err)
	}
	srv.Drain()
	if err := pool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "availserve: pool close: %v\n", err)
	}
	release()
	fmt.Fprintln(os.Stderr, "availserve: drained, exiting")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "availserve:", err)
		os.Exit(1)
	}
}
