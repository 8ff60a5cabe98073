package shard

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"herald/internal/ndjson"
	"herald/internal/sim"
)

// NetConfig tunes the TCP links of the shard protocol: shared-token
// authentication, TLS, the heartbeat cadence that bounds half-open
// detection, supervised joins, and the listeners' log. Connect and
// handshake timeouts (10s each) and the join backoff (500ms doubling
// to 30s) are fixed. The zero value is a plaintext, unauthenticated link.
type NetConfig struct {
	// Token, when non-empty, requires the peer to prove knowledge of
	// the same token during the hello handshake (HMAC-SHA256 over both
	// sides' nonces; the token itself never crosses the wire). A peer
	// without the token — or with a different one — is rejected before
	// any job flows. Over plaintext TCP the handshake stops unauthorized
	// attaches and replays but not an active man-in-the-middle; combine
	// with TLS for that.
	Token string
	// TLS, when non-nil, wraps the connection: as tls.Client config on
	// dialing sides (DialNet, Join) and tls.Server config on listening
	// sides (ListenAndServeNetStop, ListenWorkers). NetConfigs builds
	// both from PEM files.
	TLS *tls.Config
	// HeartbeatInterval is how often this side sends protocol pings on
	// an established connection; the peer arms its read deadline at
	// heartbeatDeadlineFactor times the advertised interval, so a
	// half-open connection is detected within that bound. Default 3s.
	HeartbeatInterval time.Duration
	// Retry makes Join supervise its session: transport and handshake
	// failures reconnect with backoff instead of ending Join (see Join).
	Retry bool
	// Log receives one line per rejected connection of a listening side
	// (ListenAndServeNetStop, ListenWorkers), per accepted joiner, and
	// per failed session of a retrying Join. Nil discards them.
	Log io.Writer

	// Fixed for deployments and shortened by tests: the TCP connect and
	// hello-exchange timeouts, and a retrying Join's backoff ladder and
	// jitter seed (see joinBackoff; a zero seed derives one per process).
	dialTimeout, handshakeTimeout, retryBase, retryMax time.Duration
	retrySeed                                          uint64
	// refused, when set, sees each refusal of the peer's hello just
	// before the peer is sent it (see refuse).
	refused func(error)
}

const (
	defaultHeartbeatInterval = 3 * time.Second
	defaultDialTimeout       = 10 * time.Second
	defaultHandshakeTimeout  = 10 * time.Second
)

func (nc NetConfig) withDefaults() NetConfig {
	if nc.HeartbeatInterval <= 0 {
		nc.HeartbeatInterval = defaultHeartbeatInterval
	}
	if nc.dialTimeout <= 0 {
		nc.dialTimeout = defaultDialTimeout
	}
	if nc.handshakeTimeout <= 0 {
		nc.handshakeTimeout = defaultHandshakeTimeout
	}
	if nc.Log == nil {
		nc.Log = io.Discard
	}
	return nc
}

// ---------------------------------------------------------------------
// Authenticated handshake
// ---------------------------------------------------------------------

// The handshake is three hello messages. The listener volunteers only
// its protocol version, its sim.Realization and a random nonce; the
// dialer answers with its own nonce plus an HMAC over both (proving
// the token without an observable replayable credential); the listener
// verifies and answers with the mirrored HMAC, its heartbeat interval
// and — when it is a worker — its capacity. Either side configured
// with a token rejects a peer that cannot produce a valid MAC; a side
// without a token accepts anyone (open mode). Either side refuses a
// hello of another protocol version or realization with an error
// message, so the peer sees a clean rejection instead of a reset.

// handshake MAC domain-separation labels: each direction signs a
// distinct statement so one side's proof can never be replayed as the
// other's.
const (
	macLabelDialer   = "herald-shard-v3-dialer"
	macLabelListener = "herald-shard-v3-listener"
)

func newNonce() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("shard: handshake nonce: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// helloMAC computes the handshake proof for one direction.
func helloMAC(token, label, dialerNonce, listenerNonce string) string {
	mac := hmac.New(sha256.New, []byte(token))
	io.WriteString(mac, label)
	io.WriteString(mac, "\x00")
	io.WriteString(mac, dialerNonce)
	io.WriteString(mac, "\x00")
	io.WriteString(mac, listenerNonce)
	return hex.EncodeToString(mac.Sum(nil))
}

func macValid(token, label, dialerNonce, listenerNonce, got string) bool {
	want := helloMAC(token, label, dialerNonce, listenerNonce)
	return hmac.Equal([]byte(want), []byte(got))
}

// errAuth is the uniform rejection: it deliberately does not say
// whether the token was missing or wrong.
var errAuth = fmt.Errorf("shard: authentication failed (token mismatch)")

// refuse answers a peer hello this side will not accept with an error
// message naming msg, so the peer sees a clean rejection instead of a
// reset, and returns err. nc.refused sees err first: an accept loop
// logs the rejected peer there, so the line exists by the time the
// peer can read its rejection.
func refuse(t transport, nc NetConfig, msg string, err error) error {
	if nc.refused != nil {
		nc.refused(err)
	}
	_ = t.Send(&Message{Type: MsgError, Error: msg})
	return err
}

// recvHello receives the peer's next handshake message and accepts it
// only as a hello of this side's protocol version and realization. A
// hello of another version or realization is refused; a peer's error
// message is its rejection of this side.
func recvHello(t transport, nc NetConfig) (*Message, error) {
	m, err := t.Recv()
	if err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	if m.Type == MsgError {
		return nil, fmt.Errorf("shard: handshake rejected: %s", m.Error)
	}
	if m.Type != MsgHello {
		return nil, fmt.Errorf("shard: handshake: unexpected message type %q", m.Type)
	}
	if err := helloMismatch(m); err != nil {
		return nil, refuse(t, nc, err.Error(), fmt.Errorf("shard: %w", err))
	}
	return m, nil
}

// handshakeDialer runs the dialing side of the hello exchange and
// returns the listener's final hello (capacity, heartbeat interval).
// capacity is this side's advertisement (join mode); pass 0 when
// dialing as a coordinator.
func handshakeDialer(t transport, nc NetConfig, capacity int) (*Message, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	return helloAsDialer(t, nc, capacity, nonce)
}

// helloAsDialer is handshakeDialer's exchange with this side's
// nonce given, so a test can fix it and precompute the peer's MAC.
func helloAsDialer(t transport, nc NetConfig, capacity int, nonce string) (*Message, error) {
	srv, err := recvHello(t, nc)
	if err != nil {
		return nil, err
	}
	hello := &Message{
		Type:        MsgHello,
		Version:     protocolVersion,
		Realization: sim.Realization,
		Nonce:       nonce,
		Capacity:    capacity,
		HeartbeatMS: int(nc.HeartbeatInterval / time.Millisecond),
	}
	if nc.Token != "" {
		hello.MAC = helloMAC(nc.Token, macLabelDialer, nonce, srv.Nonce)
	}
	if err := t.Send(hello); err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	ack, err := recvHello(t, nc)
	if err != nil {
		return nil, err
	}
	if nc.Token != "" && !macValid(nc.Token, macLabelListener, nonce, srv.Nonce, ack.MAC) {
		return nil, errAuth
	}
	return ack, nil
}

// handshakeListener runs the accepting side of the hello exchange and
// returns the dialer's hello (capacity, heartbeat interval). capacity
// is this side's advertisement (serve mode); pass 0 when listening as
// a coordinator. An authentication failure is answered with a protocol
// error message before the connection is abandoned, so the dialer sees
// a clean rejection instead of a reset.
func handshakeListener(t transport, nc NetConfig, capacity int) (*Message, error) {
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	return helloAsListener(t, nc, capacity, nonce)
}

// helloAsListener is handshakeListener's exchange with this side's
// nonce given, so a test can fix it and precompute the peer's MAC.
func helloAsListener(t transport, nc NetConfig, capacity int, nonce string) (*Message, error) {
	if err := t.Send(&Message{Type: MsgHello, Version: protocolVersion, Realization: sim.Realization, Nonce: nonce}); err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	cli, err := recvHello(t, nc)
	if err != nil {
		return nil, err
	}
	if nc.Token != "" && !macValid(nc.Token, macLabelDialer, cli.Nonce, nonce, cli.MAC) {
		return nil, refuse(t, nc, "authentication failed", errAuth)
	}
	ack := &Message{
		Type:        MsgHello,
		Version:     protocolVersion,
		Realization: sim.Realization,
		Capacity:    capacity,
		HeartbeatMS: int(nc.HeartbeatInterval / time.Millisecond),
	}
	if nc.Token != "" {
		ack.MAC = helloMAC(nc.Token, macLabelListener, cli.Nonce, nonce)
	}
	if err := t.Send(ack); err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	return cli, nil
}

// setupConn wraps a fresh connection for the protocol: optional TLS,
// a handshake deadline covering the whole exchange, then the hello
// handshake in the given role, with frames held to handshakeFrameLimit
// until it completes. It returns the transport (heartbeats already
// started) and the peer's hello.
func setupConn(conn net.Conn, nc NetConfig, dialer bool, capacity int) (*connTransport, *Message, error) {
	if nc.TLS != nil {
		if dialer {
			conn = tls.Client(conn, nc.TLS)
		} else {
			conn = tls.Server(conn, nc.TLS)
		}
	}
	_ = conn.SetDeadline(time.Now().Add(nc.handshakeTimeout))
	t := newTransport(conn)
	t.in.limit = handshakeFrameLimit
	var peer *Message
	var err error
	if dialer {
		peer, err = handshakeDialer(t, nc, capacity)
	} else {
		peer, err = handshakeListener(t, nc, capacity)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	t.in.limit = ndjson.MaxLine
	t.startHeartbeat(nc.HeartbeatInterval, peer.HeartbeatMS)
	return t, peer, nil
}

// dial connects to addr and runs the dialing side of the handshake,
// advertising capacity (0 when dialing as a coordinator): the one
// connect path of DialNet and Join.
func dial(addr string, nc NetConfig, capacity int) (*connTransport, *Message, error) {
	nc = nc.withDefaults()
	nc.TLS = clientTLSFor(nc.TLS, addr)
	conn, err := net.DialTimeout("tcp", addr, nc.dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	return setupConn(conn, nc, true, capacity)
}

// acceptLoop is the one accept loop of both listening sides. It
// accepts connections on ln until ln closes and runs each one's
// handshake, as listener advertising capacity, on a goroutine of its
// own, so a silent client holds up nobody behind it; an established
// link goes to serve on that goroutine, and a failed handshake is
// logged as a rejected peer, a refused hello before the peer is sent
// its refusal. It returns the Accept error once every connection's
// goroutine has returned. nc must have its defaults.
func acceptLoop(ln net.Listener, nc NetConfig, peer string, capacity int, serve func(*connTransport, *Message, net.Addr)) error {
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			logged := false
			cnc := nc
			cnc.refused = func(err error) {
				fmt.Fprintf(nc.Log, "shard: rejected %s %s: %v\n", peer, conn.RemoteAddr(), err)
				logged = true
			}
			t, hello, err := setupConn(conn, cnc, false, capacity)
			if err != nil {
				if !logged {
					cnc.refused(err)
				}
				return
			}
			serve(t, hello, conn.RemoteAddr())
		}()
	}
}

// ---------------------------------------------------------------------
// Coordinator-dials-worker mode
// ---------------------------------------------------------------------

// DialNet attaches a remote TCP worker (a process running
// ListenAndServeNetStop, e.g. `availsim -shard-serve`). Jobs sent to it
// use all of the remote machine's cores. The zero NetConfig is a
// plaintext, unauthenticated link with heartbeats; the connect and the
// handshake are each bounded by a 10s timeout, so an unroutable or
// wedged address fails quickly with the address named in the error.
func DialNet(addr string, nc NetConfig) (Worker, error) {
	t, peer, err := dial(addr, nc, 0)
	if err != nil {
		return nil, fmt.Errorf("shard: dial %s: %w", addr, err)
	}
	return newRemoteWorker("tcp:"+addr, t, peer.Capacity), nil
}

// ListenAndServeNetStop runs a TCP worker: it accepts connections on
// addr and serves the shard protocol on each, using every local core
// per job unless the job says otherwise. nc configures TLS termination,
// token authentication and heartbeat cadence; handshake failures (bad
// token, version skew) drop the connection without serving a single
// job. The ready callback, when non-nil, receives the bound address
// before accepting begins (useful with ":0").
//
// When stop closes, the listener stops accepting, every connection
// finishes the job it is executing, hands queued jobs back to its
// coordinator as cancelled (they are reassigned to surviving workers),
// and the function returns nil once all connections have drained. nil
// stop serves forever.
func ListenAndServeNetStop(addr string, nc NetConfig, ready func(net.Addr), stop <-chan struct{}) error {
	nc = nc.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if ready != nil {
		ready(ln.Addr())
	}
	if stop != nil {
		go func() {
			<-stop
			ln.Close() // unblocks Accept
		}()
	}
	err = acceptLoop(ln, nc, "coordinator", workerCapacity(0), func(t *connTransport, _ *Message, _ net.Addr) {
		defer t.Close()
		_ = serveJobs(t, stop)
	})
	if stopped(stop) {
		return nil // every connection drained before acceptLoop returned
	}
	return err
}

// ---------------------------------------------------------------------
// Worker-joins-coordinator mode (auto-discovery)
// ---------------------------------------------------------------------

// Join dials a coordinator (a process running ListenWorkers, e.g.
// `availsim -shard-listen`), registers with the advertised capacity
// (0 = all local cores), and serves shard jobs on the connection until
// the coordinator closes it. It returns nil on a clean close — the
// coordinator finished — and the transport or handshake error
// otherwise.
//
// When stop closes, the worker finishes its running job, hands queued
// jobs back to the coordinator as cancelled (they are reassigned),
// closes the connection and returns nil. nil stop serves until the
// coordinator closes the connection.
//
// With nc.Retry set, Join supervises the session instead of returning
// its failure: transport and handshake errors (connection refused,
// mid-frame cut, a stalled peer tripping the read deadline, auth
// rejection) reconnect forever, with backoff from 500ms doubling to a
// 30s cap and deterministic jitter, so a worker box outlives
// coordinator restarts and network partitions. Only a clean coordinator
// close or a close of stop ends it. A session that got past the
// handshake resets the backoff ladder, so a long-healthy worker redials
// quickly after a one-off drop. nc.Log receives one line per failed
// session and reconnect delay.
func Join(addr string, capacity int, nc NetConfig, stop <-chan struct{}) error {
	if nc.Retry {
		return joinLoop(addr, capacity, nc, stop)
	}
	_, err := joinOnce(addr, capacity, nc, stop)
	return err
}

// joinOnce runs one join session end to end and additionally reports
// whether the handshake completed — the healthiness signal joinLoop
// uses to reset its reconnect backoff. A nil error with joined=true is
// a clean coordinator close (EOF between frames); an error after
// joined=true is a session that broke mid-stream (mid-frame cut,
// stalled peer, read deadline); an error with joined=false never got
// past dialing or the hello exchange.
func joinOnce(addr string, capacity int, nc NetConfig, stop <-chan struct{}) (joined bool, err error) {
	t, _, err := dial(addr, nc, workerCapacity(capacity))
	if err != nil {
		return false, fmt.Errorf("shard: join %s: %w", addr, err)
	}
	defer t.Close()
	return true, serveJobs(t, stop)
}

// workerCapacity resolves a worker's advertised capacity: an explicit
// positive value, else the local core count.
func workerCapacity(capacity int) int {
	if capacity > 0 {
		return capacity
	}
	return runtime.GOMAXPROCS(0)
}

// ListenWorkers opens a coordinator-side registration listener:
// workers that Join addr (and pass authentication) are wrapped as
// remote Workers and delivered on the returned channel, ready to be
// handed to NewPool as its elastic source. Each connection handshakes
// on its own goroutine, so a silent client delays no joiner. Closing
// the listener stops the accept loop and, once every connection still
// in its handshake has finished, closes the channel. nc.Log receives
// one line per accepted or rejected registration.
func ListenWorkers(addr string, nc NetConfig) (net.Listener, <-chan Worker, error) {
	nc = nc.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan Worker, 16)
	go func() {
		defer close(ch)
		_ = acceptLoop(ln, nc, "worker", 0, func(t *connTransport, peer *Message, from net.Addr) {
			name := "join:" + from.String()
			fmt.Fprintf(nc.Log, "shard: worker %s joined (capacity %d)\n", name, peer.Capacity)
			ch <- newRemoteWorker(name, t, peer.Capacity)
		})
	}()
	return ln, ch, nil
}

// WorkerSet names the workers a coordinator process opens: Local
// worker processes (SpawnLocal), remote workers dialed at the Connect
// addresses (DialNet), and a registration listener on Listen for
// workers that Join (ListenWorkers). Its zero value opens one local
// process per core.
type WorkerSet struct {
	// Local 0 means one process per core when Connect and Listen are
	// both empty, and none otherwise.
	Local int
	// Connect is a comma-separated host:port list; entries are trimmed
	// and empty ones skipped.
	Connect string
	Listen  string
	// Dialer configures the Connect links and Listener the listener;
	// NetConfigs builds both.
	Dialer, Listener NetConfig
}

// Open starts the set: it spawns the local processes, dials every
// Connect address, and opens the Listen listener, logging its bound
// address to Listener.Log. It returns the initial workers and the
// source of joining workers (nil without Listen), NewPool's first two
// arguments, and release, which closes the listener and every worker
// Open started. Call release after Pool.Close: the pool closes the
// workers that joined. On error Open closes what it had opened.
func (s WorkerSet) Open() (workers []Worker, joiners <-chan Worker, release func(), err error) {
	var addrs []string
	for _, addr := range strings.Split(s.Connect, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			addrs = append(addrs, addr)
		}
	}
	var ln net.Listener
	release = func() {
		if ln != nil {
			ln.Close()
		}
		for _, w := range workers {
			w.Close()
		}
	}
	defer func() {
		if err != nil {
			release()
			workers, joiners, release = nil, nil, nil
		}
	}()
	if s.Local > 0 || (len(addrs) == 0 && s.Listen == "") {
		if workers, err = SpawnLocal(s.Local); err != nil {
			return
		}
	}
	for _, addr := range addrs {
		var w Worker
		if w, err = DialNet(addr, s.Dialer); err != nil {
			return
		}
		workers = append(workers, w)
	}
	if s.Listen != "" {
		if ln, joiners, err = ListenWorkers(s.Listen, s.Listener); err != nil {
			return
		}
		fmt.Fprintf(s.Listener.withDefaults().Log, "shard: accepting workers on %s\n", ln.Addr())
	}
	return workers, joiners, release, nil
}

// ---------------------------------------------------------------------
// TLS
// ---------------------------------------------------------------------

// NetConfigs builds a process's dialing and listening NetConfig from
// base and PEM files. The listening side serves TLS when a certificate
// or key is given, with the pair certFile and keyFile, and when caFile
// is given it requires client certificates chained to it (mutual TLS).
// The dialing side turns TLS on when caFile is given: it verifies the
// server against caFile, for the dialed host, and presents the
// certificate pair when one is given.
func NetConfigs(base NetConfig, certFile, keyFile, caFile string) (dialer, listener NetConfig, err error) {
	dialer, listener = base, base
	var pool *x509.CertPool
	if caFile != "" {
		if pool, err = loadCertPool(caFile); err != nil {
			return dialer, listener, err
		}
		dialer.TLS = &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}
	}
	if certFile == "" && keyFile == "" {
		return dialer, listener, nil
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return dialer, listener, fmt.Errorf("shard: tls cert: %w", err)
	}
	listener.TLS = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	if pool != nil {
		listener.TLS.ClientCAs = pool
		listener.TLS.ClientAuth = tls.RequireAndVerifyClientCert
		dialer.TLS.Certificates = []tls.Certificate{cert}
	}
	return dialer, listener, nil
}

// clientTLSFor fills in the ServerName a dialing TLS config needs for
// certificate verification, from the host being dialed, unless the
// caller already set one.
func clientTLSFor(cfg *tls.Config, addr string) *tls.Config {
	if cfg == nil || cfg.ServerName != "" {
		return cfg
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	c := cfg.Clone()
	c.ServerName = host
	return c
}

func loadCertPool(caFile string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("shard: tls ca: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("shard: tls ca %s: no certificates found", caFile)
	}
	return pool, nil
}
