package shard

import (
	"fmt"
	"os"
	"time"

	"herald/internal/xrand"
)

const (
	defaultRetryBase = 500 * time.Millisecond
	defaultRetryMax  = 30 * time.Second
)

// joinBackoff produces the reconnect delay ladder of a retrying Join: capped
// exponential growth with deterministic jitter. Every delay is the
// nominal base<<attempt (capped at max) scaled into [1/2, 1) by the
// next draw of a seeded xrand stream, so two workers with different
// seeds never fall into dial lockstep, while a test replaying the same
// seed sees the identical sequence.
type joinBackoff struct {
	base, max time.Duration
	attempt   int
	src       *xrand.Source
}

func newJoinBackoff(base, max time.Duration, seed uint64) *joinBackoff {
	if base <= 0 {
		base = defaultRetryBase
	}
	if max < base {
		max = defaultRetryMax
		if max < base {
			max = base
		}
	}
	return &joinBackoff{base: base, max: max, src: xrand.New(seed)}
}

// next returns the delay before the upcoming reconnect attempt and
// advances the ladder.
func (b *joinBackoff) next() time.Duration {
	d := b.base
	for i := 0; i < b.attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.attempt++
	// Jitter into [d/2, d): the draw is consumed even at the cap so the
	// sequence stays a pure function of (seed, attempt index).
	return d/2 + time.Duration(b.src.Float64()*float64(d/2))
}

// reset drops the ladder back to the base delay after a healthy
// session (one whose handshake completed).
func (b *joinBackoff) reset() { b.attempt = 0 }

// joinLoop is Join with nc.Retry set: it reruns join sessions until a
// clean coordinator close or a close of stop.
func joinLoop(addr string, capacity int, nc NetConfig, stop <-chan struct{}) error {
	nc = nc.withDefaults()
	seed := nc.RetrySeed
	if seed == 0 {
		// Derive from the process identity: workers on one box (or
		// respawns of the same worker) land on distinct streams.
		seed = uint64(os.Getpid())*1e9 + uint64(time.Now().UnixNano()&0xffffffff)
	}
	backoff := newJoinBackoff(nc.RetryBase, nc.RetryMax, seed)
	for {
		joined, err := joinOnce(addr, capacity, nc, stop)
		if stopped(stop) {
			return nil
		}
		if err == nil {
			if joined {
				return nil // clean coordinator close
			}
			// Defensive: joinOnce never returns (false, nil) today, but a
			// sessionless nil must not be mistaken for a clean close.
			err = fmt.Errorf("shard: join %s: session ended before handshake", addr)
		}
		if joined {
			backoff.reset()
		}
		d := backoff.next()
		fmt.Fprintf(nc.Log, "shard: join %s: %v; reconnecting in %s\n", addr, err, d.Round(time.Millisecond))
		select {
		case <-stop:
			return nil
		case <-time.After(d):
		}
	}
}

// stopped reports whether the stop channel is closed.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}
