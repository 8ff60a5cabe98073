package shard

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"herald/internal/sim"
)

// TestHelloOfAnotherRealizationRefused pins the realization check of
// the hello: each side of the TCP handshake answers a hello of another
// sim.Realization with an error message and fails, and a coordinator
// fails a stdio worker whose hello carries one.
func TestHelloOfAnotherRealizationRefused(t *testing.T) {
	other := sim.Realization - 1
	want := fmt.Sprintf("realization %d, want %d", other, sim.Realization)
	// refused checks that the peer got an error message naming the
	// mismatch and that the side under test failed with it.
	refused := func(t *testing.T, peer transport, done <-chan error) {
		t.Helper()
		if m, err := peer.Recv(); err != nil || m.Type != MsgError || m.Error != want {
			t.Errorf("the peer received %+v (err %v), want an error message %q", m, err, want)
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("handshake err %v, want one naming %q", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Error("the handshake is still waiting on the peer")
		}
	}

	t.Run("listener", func(t *testing.T) {
		server, client := pipeTransports()
		done := make(chan error, 1)
		go func() {
			_, err := handshakeListener(server, NetConfig{}, 0)
			done <- err
		}()
		if m, err := client.Recv(); err != nil || m.Type != MsgHello || m.Realization != sim.Realization {
			t.Fatalf("listener hello %+v (err %v), want one carrying realization %d", m, err, sim.Realization)
		}
		if err := client.Send(&Message{Type: MsgHello, Version: protocolVersion, Realization: other, Nonce: "aa"}); err != nil {
			t.Fatal(err)
		}
		refused(t, client, done)
	})

	t.Run("dialer", func(t *testing.T) {
		server, client := pipeTransports()
		done := make(chan error, 1)
		go func() {
			_, err := handshakeDialer(client, NetConfig{}, 0)
			done <- err
		}()
		if err := server.Send(&Message{Type: MsgHello, Version: protocolVersion, Realization: other, Nonce: "aa"}); err != nil {
			t.Fatal(err)
		}
		refused(t, server, done)
	})

	t.Run("stdio", func(t *testing.T) {
		server, client := pipeTransports()
		w := newRemoteWorker("stale", client, 1)
		defer w.Close()
		if err := server.Send(&Message{Type: MsgHello, Version: protocolVersion, Realization: other}); err != nil {
			t.Fatal(err)
		}
		p, o := testParams(sim.Conventional), testOptions()
		wire, err := EncodeParams(p)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := w.Run(&Job{ID: 1, End: 64, Params: wire, Options: o})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("a stdio worker of realization %d ran a job: err %v", other, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("a stdio worker of realization %d was sent a job", other)
		}
	})
}

// Fixed handshake nonces and token for FuzzHandshake, so a seed can
// carry MACs that verify.
const (
	fuzzDialerNonce   = "0123456789abcdef0123456789abcdef"
	fuzzListenerNonce = "fedcba9876543210fedcba9876543210"
	fuzzPeerNonce     = "00112233445566778899aabbccddeeff"
	fuzzToken         = "fuzz-token"
)

// handshakeSides runs data, as the peer's frames, against each side of
// the hello exchange with and without a token. Writes are discarded
// and the stream ends after data, so no exchange can block.
var handshakeSides = []struct {
	name   string
	dialer bool
	nc     NetConfig
}{
	{"dialer", true, NetConfig{}},
	{"dialer-token", true, NetConfig{Token: fuzzToken}},
	{"listener", false, NetConfig{}},
	{"listener-token", false, NetConfig{Token: fuzzToken}},
}

// runHandshakeSide runs one side of the hello exchange over data with
// the pre-handshake frame bound, returning the peer hello it accepted
// and the bytes it read.
func runHandshakeSide(dialer bool, nc NetConfig, data []byte) (*Message, int64, error) {
	tr := readerTransport(data)
	tr.in.limit = handshakeFrameLimit
	var m *Message
	var err error
	if dialer {
		m, err = helloAsDialer(tr, nc, 0, fuzzDialerNonce)
	} else {
		m, err = helloAsListener(tr, nc, 0, fuzzListenerNonce)
	}
	return m, tr.in.read, err
}

// helloFrames renders messages as the newline-delimited frames of the
// shard protocol.
func helloFrames(tb testing.TB, ms ...*Message) []byte {
	tb.Helper()
	var b []byte
	for _, m := range ms {
		line, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

// FuzzHandshake feeds arbitrary bytes as the peer's frames to both
// sides of the hello exchange, with and without a token. Each input
// must either complete — and then every hello the side accepted carries
// this build's protocol version and realization — or return an error;
// nothing may panic, hang, or read past the pre-handshake frame bound
// (one frame for a listener, two for a dialer).
func FuzzHandshake(f *testing.F) {
	// exchange is one stream both sides accept: to a listener its first
	// frame is the dialer's hello; to a dialer it is the listener's
	// hello, and the second frame the listener's acknowledgement.
	exchange := func(version, realization int) []byte {
		return helloFrames(f,
			&Message{Type: MsgHello, Version: version, Realization: realization, Nonce: fuzzPeerNonce,
				MAC: helloMAC(fuzzToken, macLabelDialer, fuzzPeerNonce, fuzzListenerNonce), HeartbeatMS: 500},
			&Message{Type: MsgHello, Version: version, Realization: realization, Capacity: 2, HeartbeatMS: 500,
				MAC: helloMAC(fuzzToken, macLabelListener, fuzzDialerNonce, fuzzPeerNonce)},
		)
	}
	valid := exchange(protocolVersion, sim.Realization)
	refusedSeeds := [][]byte{
		exchange(protocolVersion, sim.Realization-1),
		exchange(protocolVersion-1, sim.Realization),
		helloFrames(f, &Message{Type: MsgError, Error: "authentication failed"}),
		valid[:len(valid)/3], // a truncated frame
	}
	// The seeds behave as labelled, so mutants start from both an
	// exchange that completes and ones each check refuses.
	for _, s := range handshakeSides {
		if _, _, err := runHandshakeSide(s.dialer, s.nc, valid); err != nil {
			f.Fatalf("%s: the valid exchange failed: %v", s.name, err)
		}
		for i, seed := range refusedSeeds {
			if _, _, err := runHandshakeSide(s.dialer, s.nc, seed); err == nil {
				f.Fatalf("%s: refused seed %d completed", s.name, i)
			}
		}
	}
	f.Add(valid)
	for _, seed := range refusedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range handshakeSides {
			peer, read, err := runHandshakeSide(s.dialer, s.nc, data)
			frames := int64(1)
			if s.dialer {
				frames = 2
			}
			if read > frames*handshakeFrameLimit {
				t.Fatalf("%s: read %d bytes, over %d frames' bound", s.name, read, frames)
			}
			if err != nil {
				continue
			}
			accepted := []*Message{peer}
			if s.dialer {
				// The listener's first hello, as the dialer read it.
				first, err := readerTransport(data).Recv()
				if err != nil {
					t.Fatalf("%s: completed on a stream whose first frame fails to decode: %v", s.name, err)
				}
				accepted = append(accepted, first)
			}
			for _, m := range accepted {
				if m.Type != MsgHello || m.Version != protocolVersion || m.Realization != sim.Realization {
					t.Fatalf("%s: completed accepting %+v", s.name, m)
				}
			}
		}
	})
}
