package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

// Span is one timed interval recorded at a layer boundary. Offsets are
// relative to the recorder's epoch. Req names the operation (request,
// run or sweep pass) the span belongs to; Parent is the ID of the span
// that caused it, 0 for an operation's root.
type Span struct {
	ID     int
	Parent int
	Req    int
	Name   string
	Start  time.Duration
	End    time.Duration
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// jobRecord is one Worker.Run call seen through the timing wrapper: the
// job as the coordinator sent it, when Run was called and returned, and
// what came back.
type jobRecord struct {
	Worker    string
	Job       shard.Job
	FP        string // shard.RunFingerprint(Job.Params, Job.Options)
	Send, Ret time.Duration
	Parts     []sim.Partial
	Cancelled bool
	Failed    bool
}

// recorder keeps spans and job records in memory until the run ends.
// Recording is off until enable; a disabled recorder costs one atomic
// load per call site.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []Span
	jobs  []jobRecord
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enabled reports whether spans are being recorded; a nil recorder
// never records.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) enable() { r.on.Store(true) }

// now returns the offset of the current instant from the epoch.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// at converts an absolute time to an epoch offset.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

// add stores a span and returns its assigned ID.
func (r *recorder) add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) addJob(j jobRecord) {
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
}

// snapshot returns copies of everything recorded so far.
func (r *recorder) snapshot() ([]Span, []jobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...), append([]jobRecord(nil), r.jobs...)
}

// covered returns how much of [start, end) the intervals cover, counting
// overlapping parts once.
func covered(start, end time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv[0], start), min(iv[1], end)
		if hi > lo {
			clipped = append(clipped, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	cur := start
	for _, iv := range clipped {
		lo := max(iv[0], cur)
		if iv[1] > lo {
			total += iv[1] - lo
			cur = iv[1]
		}
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.
func selfTime(parent Span, children []Span) time.Duration {
	ivs := make([][2]time.Duration, len(children))
	for i, c := range children {
		ivs[i] = [2]time.Duration{c.Start, c.End}
	}
	return parent.Dur() - covered(parent.Start, parent.End, ivs)
}

// share is the fraction of a piece's time that goes to one ledger row.
type share struct {
	row  string
	frac float64
}

// piece is one interval of an operation's timeline and the ledger rows
// its time is charged to. Where pieces overlap, the highest rank wins;
// overlapping pieces of equal rank split the instant evenly.
type piece struct {
	start, end time.Duration
	rank       int
	rows       []share
}

// attribute charges every instant of [start, end) to ledger rows: to the
// rows of the highest-ranked pieces covering it, or to rootRow where no
// piece does. The returned seconds sum to end-start.
func attribute(start, end time.Duration, pieces []piece, rootRow string) map[string]float64 {
	out := make(map[string]float64)
	cuts := []time.Duration{start, end}
	for _, p := range pieces {
		if p.start > start && p.start < end {
			cuts = append(cuts, p.start)
		}
		if p.end > start && p.end < end {
			cuts = append(cuts, p.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var active []int
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		seg := (b - a).Seconds()
		best := -1
		active = active[:0]
		for j, p := range pieces {
			if p.start > a || p.end < b {
				continue
			}
			switch {
			case p.rank > best:
				best = p.rank
				active = append(active[:0], j)
			case p.rank == best:
				active = append(active, j)
			}
		}
		if len(active) == 0 {
			out[rootRow] += seg
			continue
		}
		each := seg / float64(len(active))
		for _, j := range active {
			for _, sh := range pieces[j].rows {
				out[sh.row] += each * sh.frac
			}
		}
	}
	return out
}
