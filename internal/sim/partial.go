package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"herald/internal/stats"
)

// This file is the partitioning layer of the Monte-Carlo engine: it
// decomposes a run's iteration range [0, N) into canonical
// "accumulation cells" and runs the cells of any aligned sub-range
// through one executor (RunRange); fold.go merges cell partials back
// into a Summary. The decomposition is a pure function of N — never of the
// worker count, shard count or schedule — so every partitioning of a
// run produces the same floating-point merge tree and hence a
// bit-identical Summary. internal/shard distributes RunRange calls
// across processes and machines on top of this contract.

const (
	// maxCells caps the canonical cell count per run: enough
	// parallelism grain for hundreds of cores without bloating the
	// partial set a sharded run ships over the wire.
	maxCells = 256
	// minCellIterations floors the cell width so tiny runs do not
	// shatter into per-iteration partials.
	minCellIterations = 64
)

// Range is a half-open iteration index interval [Start, End).
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of iterations in the range.
func (r Range) Len() int { return r.End - r.Start }

// CellSize returns the canonical accumulation-cell width for a run of
// n iterations. It depends on n alone, which is what makes sharded
// results reproducible: any partitioning of [0, n) along cell
// boundaries yields the same cells, accumulated in the same iteration
// order and merged in the same index order.
func CellSize(n int) int {
	c := (n + maxCells - 1) / maxCells
	if c < minCellIterations {
		c = minCellIterations
	}
	return c
}

// cellsIn returns the canonical cells of a run of n iterations that
// tile [start, end). The bounds must be cell-aligned.
func cellsIn(n, start, end int) []Range {
	cs := CellSize(n)
	out := make([]Range, 0, (end-start+cs-1)/cs)
	for lo := start; lo < end; lo += cs {
		hi := lo + cs
		if hi > end {
			hi = end
		}
		out = append(out, Range{Start: lo, End: hi})
	}
	return out
}

// Partial carries the mergeable outcome of one contiguous iteration
// range: the availability and downtime accumulators, the event census,
// and the optional downtime histogram, plus the seed/range metadata a
// coordinator needs to verify exactly-once coverage. It serializes to
// JSON, which is how shard workers return results and how checkpoints
// persist completed shards.
type Partial struct {
	// Start and End delimit the half-open iteration range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Seed and MissionTime echo the options the range was run under;
	// Summarize rejects partials from a different configuration.
	Seed        uint64  `json:"seed"`
	MissionTime float64 `json:"mission_time"`
	// Avail accumulates per-iteration availability; DownDU and DownDL
	// accumulate per-iteration downtime hours by cause.
	Avail  stats.Accumulator `json:"avail"`
	DownDU stats.Accumulator `json:"down_du"`
	DownDL stats.Accumulator `json:"down_dl"`
	// DownIters counts the iterations of the range with nonzero
	// downtime — the informative observations of the heavily
	// zero-inflated availability stream. The adaptive stopping rule's
	// Student-t safeguard (stats.StopRule) takes its effective sample
	// size from this count.
	DownIters int64 `json:"down_iters,omitempty"`
	// Events is the incident census of the range.
	Events EventCounts `json:"events"`
	// Hist is the per-iteration downtime histogram when
	// Options.HistogramBins was set; nil otherwise.
	Hist *stats.Histogram `json:"hist,omitempty"`
	// Bias is the concrete failure-inflation factor the range sampled
	// under (> 0 exactly for importance-sampled ranges, including an
	// auto request that resolved to 1); 0 for unbiased ranges.
	// Summarize requires it to be consistent across a run's partials —
	// auto resolution happens once, in prepareRange, never per worker.
	Bias float64 `json:"bias,omitempty"`
	// WAvail/WDownDU/WDownDL are the weighted counterparts of the
	// accumulators above, carrying each iteration's importance weight
	// exp(logW). Set exactly when Bias > 0; the unweighted accumulators
	// are still filled (they describe the raw proposal-law stream and
	// keep the merge-tree contract uniform).
	WAvail  *stats.WeightedAccumulator `json:"w_avail,omitempty"`
	WDownDU *stats.WeightedAccumulator `json:"w_down_du,omitempty"`
	WDownDL *stats.WeightedAccumulator `json:"w_down_dl,omitempty"`
}

// histMaxFor returns the downtime histogram's upper edge for the run
// options (default: 1% of the mission time).
func histMaxFor(o Options) float64 {
	if o.HistogramMaxHours > 0 {
		return o.HistogramMaxHours
	}
	return o.MissionTime / 100
}

// runCell walks every iteration of one canonical cell sequentially and
// returns its partial. Sequential per-cell accumulation plus
// per-iteration stream reseeding makes the partial a pure function of
// (params, options, cell) — independent of which worker, process or
// machine computed it.
func (sc *scratch) runCell(c Range, opts Options, histMax float64) Partial {
	pt := Partial{Start: c.Start, End: c.End, Seed: opts.Seed, MissionTime: opts.MissionTime, Bias: opts.Bias}
	if opts.HistogramBins > 0 {
		pt.Hist = stats.NewHistogram(0, histMax, opts.HistogramBins)
	}
	if opts.Bias > 0 {
		pt.WAvail = &stats.WeightedAccumulator{}
		pt.WDownDU = &stats.WeightedAccumulator{}
		pt.WDownDL = &stats.WeightedAccumulator{}
	}
	for it := c.Start; it < c.End; it++ {
		is := sc.iterate(opts.Seed, it, opts.MissionTime)
		down := is.downDU + is.downDL
		av := 1 - down/opts.MissionTime
		pt.Avail.Add(av)
		pt.DownDU.Add(is.downDU)
		pt.DownDL.Add(is.downDL)
		if down > 0 {
			pt.DownIters++
		}
		pt.Events.Merge(is.events)
		if pt.Hist != nil {
			pt.Hist.Add(down)
		}
		if pt.WAvail != nil {
			w := math.Exp(is.logW)
			pt.WAvail.Add(av, w)
			pt.WDownDU.Add(is.downDU, w)
			pt.WDownDL.Add(is.downDL, w)
		}
	}
	return pt
}

// prepareRange resolves a range execution (Resolve) and returns the
// options it runs under and the canonical cells of [start, end).
func prepareRange(p *ArrayParams, o *Options, start, end int) (Options, []Range, error) {
	ro, err := Resolve(*p, *o)
	if err != nil {
		return Options{}, nil, err
	}
	if start < 0 || end > o.Iterations || start >= end {
		return Options{}, nil, fmt.Errorf("sim: range [%d,%d) outside run [0,%d)", start, end, o.Iterations)
	}
	cs := CellSize(o.Iterations)
	if start%cs != 0 || (end%cs != 0 && end != o.Iterations) {
		return Options{}, nil, fmt.Errorf("sim: range [%d,%d) not aligned to the %d-iteration cells of a %d-iteration run",
			start, end, cs, o.Iterations)
	}
	opts := ro.withDefaults()
	// Resolve the bias factor once: the concrete factor is fixed here
	// (auto picks from the rates) and echoed into every Partial, so all
	// workers — local goroutines or remote shards running the same
	// resolved options — sample under the identical measure.
	opts.Bias = 0
	if o.Biased() {
		if opts.Bias, err = resolveBias(*p, *o); err != nil {
			return Options{}, nil, err
		}
	}
	return opts, cellsIn(o.Iterations, start, end), nil
}

// ErrStopped is returned by RunRangeUntil when the stop channel
// closed before every cell of the range completed.
var ErrStopped = errors.New("sim: run stopped before completing its range")

// execute runs cells across opts.Workers goroutines (the calling
// goroutine alone when one suffices). Workers claim cells off one
// cursor and hand each partial to emit with its cell index, from
// whichever goroutine computed it; they stop claiming once stop (nil
// for never) closes or an emit returns false. A claimed cell is always
// computed and emitted, so execute reports whether every cell was.
func execute(p *ArrayParams, opts Options, cells []Range, stop <-chan struct{}, emit func(ci int, pt Partial) bool) bool {
	histMax := histMaxFor(opts)
	var next atomic.Int64
	var halt atomic.Bool
	work := func() {
		sc := newScratch(p, opts.Kernel, opts.noBatch, opts.Bias)
		for !halt.Load() {
			select {
			case <-stop:
				return
			default:
			}
			ci := int(next.Add(1)) - 1
			if ci >= len(cells) {
				return
			}
			if !emit(ci, sc.runCell(cells[ci], opts, histMax)) {
				halt.Store(true)
			}
		}
	}
	workers := min(opts.Workers, len(cells))
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	return int(next.Load()) >= len(cells)
}

// RunRange executes the iterations of [start, end) and returns one
// Partial per canonical cell, in cell order. The bounds must lie on
// cell boundaries of the full run (CellSize(o.Iterations)); end ==
// o.Iterations is always a valid boundary. Cells are computed in
// parallel across Options.Workers goroutines, but each cell is
// accumulated sequentially, so the returned partials do not depend on
// the schedule.
func RunRange(p ArrayParams, o Options, start, end int) ([]Partial, error) {
	return RunRangeUntil(p, o, start, end, nil)
}

// RunRangeUntil is RunRange that a close of stop (nil for never)
// abandons: cells not yet started are skipped and RunRangeUntil
// returns ErrStopped, unless every cell had already completed. Shard
// workers run jobs through it so a coordinator can cancel iterations
// its stopping rule no longer needs.
func RunRangeUntil(p ArrayParams, o Options, start, end int, stop <-chan struct{}) ([]Partial, error) {
	opts, cells, err := prepareRange(&p, &o, start, end)
	if err != nil {
		return nil, err
	}
	parts := make([]Partial, len(cells))
	if !execute(&p, opts, cells, stop, func(ci int, pt Partial) bool {
		parts[ci] = pt
		return true
	}) {
		return nil, ErrStopped
	}
	return parts, nil
}
