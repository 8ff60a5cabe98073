package shard

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// NetConfig tunes the TCP transport of the shard protocol: shared-token
// authentication, TLS, connection and handshake timeouts, and the
// heartbeat cadence that bounds half-open-connection detection. The
// zero value is a plaintext, unauthenticated link with the default
// timings — the pre-v3 behavior, minus the unbounded blocking.
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
	// sides (ListenAndServeNetStop, ListenWorkers). See ServerTLS/ClientTLS
	// for building one from PEM files.
	TLS *tls.Config
	// HeartbeatInterval is how often this side sends protocol pings on
	// an established connection; the peer arms its read deadline at
	// heartbeatDeadlineFactor times the advertised interval, so a
	// half-open connection is detected within that bound. Default 3s.
	HeartbeatInterval time.Duration
	// DialTimeout bounds the TCP connect of DialNet and Join (the OS
	// default can be minutes for an unroutable address). Default 10s.
	DialTimeout time.Duration
	// HandshakeTimeout bounds the hello exchange (and TLS handshake)
	// after the connection is up. Default 10s.
	HandshakeTimeout time.Duration
	// Retry makes Join supervise its session: transport and handshake
	// failures reconnect with backoff instead of ending Join (see Join).
	Retry bool
	// RetryBase and RetryMax bound a retrying Join's reconnect backoff:
	// the delay starts at RetryBase, doubles per consecutive failure,
	// and is capped at RetryMax (defaults 500ms and 30s). A session that
	// got past the handshake resets the ladder.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the deterministic jitter stream of the reconnect
	// backoff (each delay is scaled into [1/2, 1) of its nominal value
	// off an xrand stream), so reconnect storms desynchronize while
	// tests replay the exact delay sequence. Zero derives a seed from
	// the process identity — distinct workers then spread out — which
	// is the right default everywhere outside a test.
	RetrySeed uint64
	// Log receives one line per rejected connection of a listening side
	// (ListenAndServeNetStop, ListenWorkers), per accepted joiner, and
	// per failed session of a retrying Join. Nil discards them.
	Log io.Writer
}

const (
	defaultHeartbeatInterval = 3 * time.Second
	defaultDialTimeout       = 10 * time.Second
	defaultHandshakeTimeout  = 10 * time.Second
	// heartbeatDeadlineFactor sizes the read deadline from the peer's
	// advertised heartbeat interval: several missed beats, not one, so
	// scheduling jitter never kills a healthy link.
	heartbeatDeadlineFactor = 4
	// netWriteTimeout bounds every message write: a peer that stopped
	// draining its socket (full TCP buffer on a half-open link) fails
	// the Send instead of wedging it.
	netWriteTimeout = 15 * time.Second
)

func (nc NetConfig) withDefaults() NetConfig {
	if nc.HeartbeatInterval <= 0 {
		nc.HeartbeatInterval = defaultHeartbeatInterval
	}
	if nc.DialTimeout <= 0 {
		nc.DialTimeout = defaultDialTimeout
	}
	if nc.HandshakeTimeout <= 0 {
		nc.HandshakeTimeout = defaultHandshakeTimeout
	}
	if nc.Log == nil {
		nc.Log = io.Discard
	}
	return nc
}

// ---------------------------------------------------------------------
// Deadline-aware transport with heartbeats
// ---------------------------------------------------------------------

// netTransport frames the ndjson protocol over a net.Conn with
// per-operation deadlines and a background heartbeat pinger. Reads are
// bounded by the peer's advertised heartbeat interval (a silent peer is
// a dead peer), writes by netWriteTimeout.
type netTransport struct {
	mu  sync.Mutex // serializes Send
	enc *json.Encoder
	dec *json.Decoder
	c   net.Conn

	readTimeout time.Duration // guarded by rmu; set once after handshake

	pingStop chan struct{}
	pingOnce sync.Once
	once     sync.Once
}

func newNetTransport(c net.Conn) *netTransport {
	return &netTransport{
		enc:      json.NewEncoder(c),
		dec:      json.NewDecoder(c),
		c:        c,
		pingStop: make(chan struct{}),
	}
}

func (t *netTransport) Send(m *Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.c.SetWriteDeadline(time.Now().Add(netWriteTimeout))
	return t.enc.Encode(m)
}

func (t *netTransport) Recv() (*Message, error) {
	if t.readTimeout > 0 {
		_ = t.c.SetReadDeadline(time.Now().Add(t.readTimeout))
	}
	var m Message
	if err := t.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (t *netTransport) Close() error {
	var err error
	t.once.Do(func() {
		t.pingOnce.Do(func() { close(t.pingStop) })
		err = t.c.Close()
	})
	return err
}

// startHeartbeat begins the outgoing ping cadence and arms the read
// deadline from the peer's advertised interval. Call exactly once,
// after the handshake and before concurrent use.
func (t *netTransport) startHeartbeat(own time.Duration, peerMS int) {
	if peerMS > 0 {
		t.readTimeout = heartbeatDeadlineFactor * time.Duration(peerMS) * time.Millisecond
	}
	if own <= 0 {
		return
	}
	go func() {
		tick := time.NewTicker(own)
		defer tick.Stop()
		for {
			select {
			case <-t.pingStop:
				return
			case <-tick.C:
				if t.Send(&Message{Type: MsgPing}) != nil {
					return // connection is gone; Recv surfaces it
				}
			}
		}
	}()
}

// ---------------------------------------------------------------------
// Authenticated handshake
// ---------------------------------------------------------------------

// The handshake is three hello messages. The listener volunteers only
// its protocol version and a random nonce; the dialer answers with its
// own nonce plus an HMAC over both (proving the token without an
// observable replayable credential); the listener verifies and answers
// with the mirrored HMAC, its heartbeat interval and — when it is a
// worker — its capacity. Either side configured with a token rejects a
// peer that cannot produce a valid MAC; a side without a token accepts
// anyone (open mode).

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

// handshakeDialer runs the dialing side of the hello exchange and
// returns the listener's final hello (capacity, heartbeat interval).
// capacity is this side's advertisement (join mode); pass 0 when
// dialing as a coordinator.
func handshakeDialer(t transport, nc NetConfig, capacity int) (*Message, error) {
	srv, err := t.Recv()
	if err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	if srv.Type == MsgError {
		return nil, fmt.Errorf("shard: handshake rejected: %s", srv.Error)
	}
	if srv.Type != MsgHello {
		return nil, fmt.Errorf("shard: handshake: unexpected message type %q", srv.Type)
	}
	if srv.Version != protocolVersion {
		return nil, fmt.Errorf("shard: protocol version %d, want %d", srv.Version, protocolVersion)
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	hello := &Message{
		Type:        MsgHello,
		Version:     protocolVersion,
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
	ack, err := t.Recv()
	if err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	if ack.Type == MsgError {
		return nil, fmt.Errorf("shard: handshake rejected: %s", ack.Error)
	}
	if ack.Type != MsgHello {
		return nil, fmt.Errorf("shard: handshake: unexpected message type %q", ack.Type)
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
	if err := t.Send(&Message{Type: MsgHello, Version: protocolVersion, Nonce: nonce}); err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	cli, err := t.Recv()
	if err != nil {
		return nil, fmt.Errorf("shard: handshake: %w", err)
	}
	if cli.Type != MsgHello {
		return nil, fmt.Errorf("shard: handshake: unexpected message type %q", cli.Type)
	}
	if cli.Version != protocolVersion {
		_ = t.Send(&Message{Type: MsgError, Error: fmt.Sprintf("protocol version %d, want %d", cli.Version, protocolVersion)})
		return nil, fmt.Errorf("shard: protocol version %d, want %d", cli.Version, protocolVersion)
	}
	if nc.Token != "" && !macValid(nc.Token, macLabelDialer, cli.Nonce, nonce, cli.MAC) {
		_ = t.Send(&Message{Type: MsgError, Error: "authentication failed"})
		return nil, errAuth
	}
	ack := &Message{
		Type:        MsgHello,
		Version:     protocolVersion,
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
// handshake in the given role. It returns the transport (heartbeats
// already started) and the peer's hello.
func setupConn(conn net.Conn, nc NetConfig, dialer bool, capacity int) (*netTransport, *Message, error) {
	if nc.TLS != nil {
		if dialer {
			conn = tls.Client(conn, nc.TLS)
		} else {
			conn = tls.Server(conn, nc.TLS)
		}
	}
	_ = conn.SetDeadline(time.Now().Add(nc.HandshakeTimeout))
	t := newNetTransport(conn)
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
	t.startHeartbeat(nc.HeartbeatInterval, peer.HeartbeatMS)
	return t, peer, nil
}

// ---------------------------------------------------------------------
// Coordinator-dials-worker mode
// ---------------------------------------------------------------------

// DialNet attaches a remote TCP worker (a process running
// ListenAndServeNetStop, e.g. `availsim -shard-serve`). Jobs sent to it
// use all of the remote machine's cores. The zero NetConfig is a
// plaintext, unauthenticated link with heartbeats; the connect is
// bounded by nc.DialTimeout and the handshake by nc.HandshakeTimeout,
// so an unroutable or wedged address fails quickly with the address
// named in the error.
func DialNet(addr string, nc NetConfig) (Worker, error) {
	nc = nc.withDefaults()
	nc.TLS = clientTLSFor(nc.TLS, addr)
	conn, err := net.DialTimeout("tcp", addr, nc.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("shard: dial %s: %w", addr, err)
	}
	t, peer, err := setupConn(conn, nc, true, 0)
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
	var conns sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if stop != nil {
				select {
				case <-stop:
					conns.Wait() // every connection drains before exit
					return nil
				default:
				}
			}
			conns.Wait()
			return err
		}
		conns.Add(1)
		go func(c net.Conn) {
			defer conns.Done()
			t, _, err := setupConn(c, nc, false, workerCapacity(0))
			if err != nil {
				fmt.Fprintf(nc.Log, "shard: %s: %v\n", c.RemoteAddr(), err)
				return
			}
			defer t.Close()
			_ = serveJobs(t, stop)
		}(conn)
	}
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
// rejection) reconnect with capped exponential backoff and
// deterministic jitter (nc.Retry*), forever, so a worker box outlives
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
	nc = nc.withDefaults()
	nc.TLS = clientTLSFor(nc.TLS, addr)
	conn, err := net.DialTimeout("tcp", addr, nc.DialTimeout)
	if err != nil {
		return false, fmt.Errorf("shard: join %s: %w", addr, err)
	}
	t, _, err := setupConn(conn, nc, true, workerCapacity(capacity))
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
// handed to NewPool as its elastic source. Closing the listener stops
// the accept loop and closes the channel. nc.Log receives one line per
// accepted or rejected registration.
func ListenWorkers(addr string, nc NetConfig) (net.Listener, <-chan Worker, error) {
	nc = nc.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan Worker, 16)
	go func() {
		defer close(ch)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t, peer, err := setupConn(conn, nc, false, 0)
			if err != nil {
				fmt.Fprintf(nc.Log, "shard: rejected worker %s: %v\n", conn.RemoteAddr(), err)
				continue
			}
			name := fmt.Sprintf("join:%s", conn.RemoteAddr())
			fmt.Fprintf(nc.Log, "shard: worker %s joined (capacity %d)\n", name, peer.Capacity)
			ch <- newRemoteWorker(name, t, peer.Capacity)
		}
	}()
	return ln, ch, nil
}

// ---------------------------------------------------------------------
// TLS helpers
// ---------------------------------------------------------------------

// ServerTLS builds the listening-side TLS configuration from PEM
// files: the server certificate and key, plus an optional CA bundle —
// when given, client certificates are required and verified against it
// (mutual TLS).
func ServerTLS(certFile, keyFile, caFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("shard: tls cert: %w", err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	if caFile != "" {
		pool, err := loadCertPool(caFile)
		if err != nil {
			return nil, err
		}
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}

// ClientTLS builds the dialing-side TLS configuration: the CA bundle
// the peer's certificate must chain to (empty = system roots),
// serverName to verify against (empty = the dialed host), and an
// optional client certificate pair for mutual TLS.
func ClientTLS(caFile, serverName, certFile, keyFile string) (*tls.Config, error) {
	cfg := &tls.Config{ServerName: serverName, MinVersion: tls.VersionTLS12}
	if caFile != "" {
		pool, err := loadCertPool(caFile)
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = pool
	}
	if certFile != "" || keyFile != "" {
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return nil, fmt.Errorf("shard: tls client cert: %w", err)
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
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
