package sweep

import (
	"io"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

// Monte-Carlo scenario sweeps. A paper-scale evaluation is not one run
// but dozens — every policy crossed with every HEP value, each at 1e6
// iterations — and executing the points one after another leaves the
// worker pool idle while each point's tail shards (or adaptive drain)
// finish. MonteCarlo pipelines the points through one shared pool via
// shard.RunPipeline: point k+1's shards start the moment a pool slot
// frees up, while point k is still draining, without changing a bit of
// any point's answer.

// MCPoint is one scenario of a Monte-Carlo sweep: a label plus the
// full simulation configuration.
type MCPoint struct {
	// Label names the point in results and reports.
	Label string
	// Params and Options configure the point exactly as sim.Run would
	// receive them; adaptive options make the point precision-targeted.
	Params  sim.ArrayParams
	Options sim.Options
	// Shards is the point's claim divisor (shard.RunSpec.Shards): each
	// claim takes 1/Shards of the work left, and 0 means the pool's
	// live slots.
	Shards int
	// Checkpoint, when non-empty, makes the point resumable.
	Checkpoint string
}

// MCResult is one point's outcome.
type MCResult struct {
	// Label echoes the point's label.
	Label string
	// Summary is the point's merged result, bit-identical to running
	// the point alone.
	Summary sim.Summary
	// Stats reports how the point's distributed run unfolded.
	Stats shard.Stats
	// Done is the point's completion offset from the sweep start.
	// Points share the pool and overlap, so offsets are cumulative:
	// the last point's Done is the sweep's total wall time.
	Done time.Duration
	// Fingerprint is the point's canonical run identity
	// (shard.Identify): equal fingerprints mean byte-identical
	// Summaries, so it keys result caches and joins sweep rows to
	// availserve responses. The kernel is resolved first, the way
	// availserve resolves it. Empty when the point fails validation
	// (the run then failed too).
	Fingerprint string
}

// MonteCarlo executes the points through one shared worker pool,
// pipelined across scenarios as well as within each run. Results come
// back in point order; every Summary is bit-identical to executing
// that point alone with the same options. A point that fails (refused
// at submission, a worker's job-scoped error, a failed checkpoint
// write) fails alone: the slice carries every point that finished
// (zero Summary for a failed one) and the error is the first failure,
// mirroring shard.RunPipeline. logw receives coordinator warnings (nil discards
// them). The caller owns the workers.
func MonteCarlo(points []MCPoint, workers []shard.Worker, logw io.Writer) ([]MCResult, error) {
	specs := make([]shard.RunSpec, len(points))
	for i, pt := range points {
		specs[i] = shard.RunSpec{
			Params:     pt.Params,
			Options:    pt.Options,
			Shards:     pt.Shards,
			Checkpoint: pt.Checkpoint,
		}
	}
	res, err := shard.RunPipeline(specs, workers, &shard.PoolOptions{Log: logw})
	out := make([]MCResult, len(res))
	for i := range res {
		// A point Identify refuses fails its run too: err reports it.
		_, fp, _ := shard.Identify(points[i].Params, points[i].Options)
		out[i] = MCResult{
			Label:       points[i].Label,
			Summary:     res[i].Summary,
			Stats:       res[i].Stats,
			Done:        res[i].Wall,
			Fingerprint: fp,
		}
	}
	return out, err
}
