package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"herald/internal/shard"
)

// flight is one run identity in the result table: the run while it
// executes, shared by every request that asked for the same fingerprint
// (singleflight), and the cached entry once it has finished. The
// request that creates it leads and executes the run; later identical
// requests join, block on done, and read the same bytes. Streaming
// requests subscribe to the run's progress feed; slow subscribers are
// coalesced, never blocked on, because the publisher runs under the
// shard dispatcher's lock.
type flight struct {
	fp   string
	done chan struct{}

	// ctx is the run's context. waiters counts requests with a live
	// interest in the outcome; the table joins one per lookup, and the
	// last to leave cancels ctx: before the run finished, that aborts it,
	// since nobody is left to read it.
	ctx     context.Context
	cancel  context.CancelFunc
	waiters atomic.Int32

	mu      sync.Mutex
	subs    map[chan shard.RunProgress]struct{}
	last    shard.RunProgress
	hasLast bool

	// Set under the table's lock before done closes, immutable after.
	// el is the flight's LRU element once the run succeeded.
	el   *list.Element
	body []byte
	err  error
}

func newFlight(fp string) *flight {
	ctx, cancel := context.WithCancel(context.Background())
	return &flight{
		fp:     fp,
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
		subs:   make(map[chan shard.RunProgress]struct{}),
	}
}

// publish fans a progress observation out to every subscriber. It is
// the Pool.Submit progress callback, so it must never block: each
// subscriber channel has capacity one and acts as a mailbox holding
// the freshest observation — when full, the stale value is dropped and
// replaced. Progress is monotone, so dropping older events preserves
// the stream's ordering guarantee.
func (f *flight) publish(pr shard.RunProgress) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.last = pr
	f.hasLast = true
	for ch := range f.subs {
		select {
		case ch <- pr:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- pr:
			default:
			}
		}
	}
}

// subscribe registers a progress mailbox, pre-filled with the latest
// observation so a late joiner sees where the run stands immediately.
func (f *flight) subscribe() chan shard.RunProgress {
	ch := make(chan shard.RunProgress, 1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hasLast {
		ch <- f.last
	}
	f.subs[ch] = struct{}{}
	return ch
}

func (f *flight) unsubscribe(ch chan shard.RunProgress) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, ch)
}

// leave drops the waiter a table lookup joined. The last leave cancels
// the run's context, propagating the collective client disconnect down
// to the shard layer; once the run has finished that is a no-op.
func (f *flight) leave() {
	if f.waiters.Add(-1) == 0 {
		f.cancel()
	}
}
