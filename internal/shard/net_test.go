package shard

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"herald/internal/sim"
)

// startWorkerServer runs ListenAndServeNetStop on a free port and returns
// the bound address. The serve goroutine leaks for the test's
// lifetime, like the plaintext TCP tests.
func startWorkerServer(t *testing.T, nc NetConfig) string {
	t.Helper()
	ready := make(chan net.Addr, 1)
	go func() {
		if err := ListenAndServeNetStop("127.0.0.1:0", nc, func(a net.Addr) { ready <- a }, nil); err != nil {
			// The listener lives until process exit; report late
			// failures without t (the test may be done).
			fmt.Fprintln(os.Stderr, "test worker server:", err)
		}
	}()
	select {
	case a := <-ready:
		return a.String()
	case <-time.After(10 * time.Second):
		t.Fatal("worker server did not start")
		return ""
	}
}

// runWith executes the canonical test run on a pool over the given
// workers and elastic source, and returns its summary bytes.
func runWith(t *testing.T, workers []Worker, source <-chan Worker, logw io.Writer) ([]byte, Stats) {
	t.Helper()
	pool, err := NewPool(workers, source, &PoolOptions{Log: logw})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	spec := RunSpec{Params: testParams(sim.Conventional), Options: testOptions(), Shards: 4}
	tk, err := pool.Submit(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	return summaryBytes(t, res.Summary), res.Stats
}

// baselineBytes is the single-process reference for byte-identity.
func baselineBytes(t *testing.T) []byte {
	t.Helper()
	base, err := sim.Run(testParams(sim.Conventional), testOptions())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return summaryBytes(t, base)
}

// TestAuthRejection pins the handshake contract: a dialer with the
// wrong token — or none — is rejected with a clean error before any
// job flows, and the right token runs to a bit-identical Summary.
func TestAuthRejection(t *testing.T) {
	addr := startWorkerServer(t, NetConfig{Token: "conf-date-2017"})

	for _, bad := range []string{"wrong-token", ""} {
		w, err := DialNet(addr, NetConfig{Token: bad, handshakeTimeout: 5 * time.Second})
		if err == nil {
			w.Close()
			t.Fatalf("dial with token %q succeeded, want auth rejection", bad)
		}
		if !strings.Contains(err.Error(), "authentication failed") {
			t.Errorf("dial with token %q: error %q does not name the auth failure", bad, err)
		}
	}

	w, err := DialNet(addr, NetConfig{Token: "conf-date-2017"})
	if err != nil {
		t.Fatalf("dial with the right token: %v", err)
	}
	defer w.Close()
	got, _ := runWith(t, []Worker{w}, nil, nil)
	if !bytes.Equal(got, baselineBytes(t)) {
		t.Error("authenticated run is not byte-identical to the single-process baseline")
	}
}

// TestWorkerRejectsUnauthenticatedCoordinator covers the other
// direction: a token-holding dialer refuses a worker that cannot prove
// the token, so a spoofed worker cannot feed results into a run.
func TestWorkerRejectsUnauthenticatedCoordinator(t *testing.T) {
	addr := startWorkerServer(t, NetConfig{}) // open worker, no token
	w, err := DialNet(addr, NetConfig{Token: "secret", handshakeTimeout: 5 * time.Second})
	if err == nil {
		w.Close()
		t.Fatal("token-holding dial accepted a tokenless worker")
	}
	if !strings.Contains(err.Error(), "authentication failed") {
		t.Errorf("error %q does not name the auth failure", err)
	}
}

// writeTestCerts generates a throwaway CA plus a server certificate
// for 127.0.0.1 signed by it, returning PEM file paths.
func writeTestCerts(t *testing.T) (certFile, keyFile, caFile string) {
	t.Helper()
	dir := t.TempDir()

	caPub, caPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "herald test CA"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, caPub, caPriv)
	if err != nil {
		t.Fatal(err)
	}

	srvPub, srvPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	srvTmpl := &x509.Certificate{
		SerialNumber: big.NewInt(2),
		Subject:      pkix.Name{CommonName: "herald test worker"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
		DNSNames:     []string{"localhost"},
	}
	srvDER, err := x509.CreateCertificate(rand.Reader, srvTmpl, caTmpl, srvPub, caPriv)
	if err != nil {
		t.Fatal(err)
	}
	srvKeyDER, err := x509.MarshalPKCS8PrivateKey(srvPriv)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name, blockType string, der []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, pem.EncodeToMemory(&pem.Block{Type: blockType, Bytes: der}), 0600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	certFile = write("server.crt", "CERTIFICATE", srvDER)
	keyFile = write("server.key", "PRIVATE KEY", srvKeyDER)
	caFile = write("ca.crt", "CERTIFICATE", caDER)
	return certFile, keyFile, caFile
}

// TestTLSTokenByteIdentity is the acceptance pin: a run over TLS with
// token auth produces byte-identical output to a plaintext run (and
// hence to the single-process baseline).
func TestTLSTokenByteIdentity(t *testing.T) {
	certFile, keyFile, caFile := writeTestCerts(t)
	serverTLS, err := ServerTLS(certFile, keyFile, "")
	if err != nil {
		t.Fatal(err)
	}
	clientTLS, err := ClientTLS(caFile, "", "", "")
	if err != nil {
		t.Fatal(err)
	}

	addr := startWorkerServer(t, NetConfig{Token: "s3cret", TLS: serverTLS})
	w, err := DialNet(addr, NetConfig{Token: "s3cret", TLS: clientTLS})
	if err != nil {
		t.Fatalf("TLS dial: %v", err)
	}
	defer w.Close()
	tlsBytes, _ := runWith(t, []Worker{w}, nil, nil)

	plainAddr := startWorkerServer(t, NetConfig{})
	pw, err := DialNet(plainAddr, NetConfig{})
	if err != nil {
		t.Fatalf("plaintext dial: %v", err)
	}
	defer pw.Close()
	plainBytes, _ := runWith(t, []Worker{pw}, nil, nil)

	if !bytes.Equal(tlsBytes, plainBytes) {
		t.Error("TLS+token run differs from plaintext run")
	}
	if !bytes.Equal(tlsBytes, baselineBytes(t)) {
		t.Error("TLS+token run differs from single-process baseline")
	}
}

// TestJoinRoundTrip is the worker-auto-discovery round trip: workers
// Join a coordinator's registration listener, the elastic pipeline
// runs entirely on joined workers, the Summary is bit-identical, and
// every Join returns cleanly once the coordinator closes it.
func TestJoinRoundTrip(t *testing.T) {
	nc := NetConfig{Token: "join-token"}
	ln, source, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const joiners = 2
	joinErr := make(chan error, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			joinErr <- Join(ln.Addr().String(), 1, nc, nil)
		}()
	}

	got, _ := runWith(t, nil, source, io.Discard)
	if !bytes.Equal(got, baselineBytes(t)) {
		t.Error("joined-worker run is not byte-identical to the single-process baseline")
	}
	// A joiner that registered after the run finished never reached the
	// pool, which closed only the joiners it took; the coordinator
	// closes the late one straight off the registration channel.
	deadline := time.After(10 * time.Second)
	for returned := 0; returned < joiners; {
		select {
		case err := <-joinErr:
			returned++
			if err != nil {
				t.Errorf("join returned %v, want clean close", err)
			}
		case w := <-source:
			w.Close()
		case <-deadline:
			t.Fatal("join did not return after the run")
		}
	}
}

// TestJoinRejectedCleanly pins registration auth: a joiner with the
// wrong token gets a clean error naming the rejection, and the
// listener keeps serving legitimate joiners afterwards.
func TestJoinRejectedCleanly(t *testing.T) {
	nc := NetConfig{Token: "right"}
	var logbuf syncBuffer
	nc.Log = &logbuf
	ln, source, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	err = Join(ln.Addr().String(), 1, NetConfig{Token: "wrong", handshakeTimeout: 5 * time.Second}, nil)
	if err == nil {
		t.Fatal("join with wrong token succeeded")
	}
	if !strings.Contains(err.Error(), "authentication failed") {
		t.Errorf("join error %q does not name the auth failure", err)
	}

	done := make(chan error, 1)
	go func() { done <- Join(ln.Addr().String(), 1, nc, nil) }()
	got, _ := runWith(t, nil, source, io.Discard)
	if !bytes.Equal(got, baselineBytes(t)) {
		t.Error("run after rejected joiner is not byte-identical to the baseline")
	}
	if err := <-done; err != nil {
		t.Errorf("legitimate join returned %v", err)
	}
	if !strings.Contains(logbuf.String(), "rejected worker") {
		t.Error("listener log does not record the rejected registration")
	}
}

// TestSilentClientDoesNotBlockJoiners pins the shared accept loop: a
// connection that never speaks holds up only its own handshake, so a
// joiner arriving behind it registers at once, not after the
// handshake timeout.
func TestSilentClientDoesNotBlockJoiners(t *testing.T) {
	nc := NetConfig{Token: "silent", handshakeTimeout: 30 * time.Second}
	ln, source, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The listener's hello proves the silent connection is accepted and
	// waiting in its handshake before the joiner dials.
	_ = silent.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := bufio.NewReader(silent).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	joinErr := make(chan error, 1)
	go func() { joinErr <- Join(ln.Addr().String(), 1, nc, nil) }()
	select {
	case w := <-source:
		w.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("joiner not registered within 2s behind a silent connection")
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Errorf("join returned %v, want clean close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join did not return after the coordinator closed it")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for logs written from
// coordinator goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startFrozenWorker runs a protocol-correct handshake advertising a
// fast heartbeat, then goes silent: it drains incoming messages but
// never answers a job and never pings — a half-open peer from the
// coordinator's perspective (the socket stays open).
func startFrozenWorker(t *testing.T, heartbeat time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		tr := newTransport(conn)
		if _, err := handshakeListener(tr, NetConfig{HeartbeatInterval: heartbeat}, 1); err != nil {
			conn.Close()
			return
		}
		// Freeze: drain the coordinator's jobs and pings so its sends
		// keep succeeding, but never reply. No startHeartbeat — the
		// silence is what the test injects.
		for {
			if _, err := tr.Recv(); err != nil {
				conn.Close()
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestHalfOpenWorkerReassigned is the tentpole acceptance test: a
// frozen (half-open) TCP worker is detected within the heartbeat
// deadline, its shards are reassigned through exactly-once banking,
// and the final Summary stays bit-identical to the single-process run.
func TestHalfOpenWorkerReassigned(t *testing.T) {
	const hb = 25 * time.Millisecond
	addr := startFrozenWorker(t, hb)
	frozen, err := DialNet(addr, NetConfig{HeartbeatInterval: hb})
	if err != nil {
		t.Fatalf("dial frozen worker: %v", err)
	}
	defer frozen.Close()

	var logbuf syncBuffer
	start := time.Now()
	got, stats := runWith(t, []Worker{frozen, NewInProcessWorker("survivor", 2)}, nil, &logbuf)
	elapsed := time.Since(start)

	if !bytes.Equal(got, baselineBytes(t)) {
		t.Error("summary after half-open reassignment is not byte-identical to the baseline")
	}
	if stats.WorkerFailures != 1 {
		t.Errorf("WorkerFailures = %d, want 1 (one frozen worker, counted once across its pipelined jobs)", stats.WorkerFailures)
	}
	if !strings.Contains(logbuf.String(), "reassigned") {
		t.Error("log does not record the reassignment")
	}
	// The deadline is 4 heartbeat intervals; well before the 15s write
	// timeout or any OS-level TCP timeout. Allow generous slack for
	// the run itself and loaded CI machines.
	if elapsed > 20*time.Second {
		t.Errorf("run took %v; half-open detection did not bound the stall", elapsed)
	}
}

// TestDialErrorsNameAddress pins the bounded-connect fix: an
// unresponsive address fails within the configured timeout — not the
// OS connect timeout — and the error names the address.
func TestDialErrorsNameAddress(t *testing.T) {
	// A listener that accepts but never speaks: the TCP connect
	// succeeds, so only the handshake deadline can save the dialer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, say nothing
		}
	}()

	addr := ln.Addr().String()
	start := time.Now()
	w, err := DialNet(addr, NetConfig{handshakeTimeout: 200 * time.Millisecond})
	if err == nil {
		w.Close()
		t.Fatal("dial of a silent listener succeeded")
	}
	if !strings.Contains(err.Error(), addr) {
		t.Errorf("error %q does not name the failing address %s", err, addr)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("handshake with silent listener took %v, want bounded by the handshake timeout", time.Since(start))
	}

	// An address nothing listens on fails the connect itself, again
	// naming the address.
	dead := ln.Addr().String()
	ln.Close()
	if _, err := DialNet(dead, NetConfig{dialTimeout: 2 * time.Second}); err == nil {
		t.Error("dial of a closed port succeeded")
	} else if !strings.Contains(err.Error(), dead) {
		t.Errorf("error %q does not name the failing address %s", err, dead)
	}
}

// TestElasticJoinerFinishesAfterPoolDeath exercises the elastic wait:
// the run's only worker freezes mid-run, and with the registration
// source still open the coordinator waits for a joiner — which then
// finishes the run bit-identically — instead of declaring it dead.
func TestElasticJoinerFinishesAfterPoolDeath(t *testing.T) {
	const hb = 25 * time.Millisecond
	frozenAddr := startFrozenWorker(t, hb)
	frozen, err := DialNet(frozenAddr, NetConfig{HeartbeatInterval: hb})
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close()

	nc := NetConfig{Token: "elastic"}
	ln, source, err := ListenWorkers("127.0.0.1:0", nc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The joiner arrives only after the frozen worker's deadline has
	// almost certainly fired, so the pool really does hit zero live
	// workers with shards outstanding.
	joinErr := make(chan error, 1)
	go func() {
		time.Sleep(8 * hb)
		joinErr <- Join(ln.Addr().String(), 1, nc, nil)
	}()

	got, stats := runWith(t, []Worker{frozen}, source, io.Discard)
	if !bytes.Equal(got, baselineBytes(t)) {
		t.Error("elastic-rescue run is not byte-identical to the baseline")
	}
	if stats.WorkerFailures != 1 {
		t.Errorf("WorkerFailures = %d, want 1", stats.WorkerFailures)
	}
	if err := <-joinErr; err != nil {
		t.Errorf("rescuing join returned %v", err)
	}
}
