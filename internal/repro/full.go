package repro

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"herald/internal/report"
	"herald/internal/shard"
	"herald/internal/sim"
	"herald/internal/sweep"
)

// Full runs the paper-scale evaluation sweep — every replacement
// policy crossed with the paper's HEP values, at 1e6 Monte-Carlo
// iterations per point (§V reports 99% confidence at that count) —
// pipelined across scenarios through one shared pool of local worker
// processes (sweep.MonteCarlo): point k+1's shards start while point k
// drains, so the pool never idles at point boundaries. Any binary
// calling it must invoke shard.MaybeWorker at the top of main.
//
// Options scale it: MCIterations overrides the per-point count,
// Workers the worker-process count, and a positive TargetHalfWidth
// makes every point adaptive — it stops at the requested CI precision
// instead of the full count, with MCIterations as the cap. The emitted
// table records each point's completion offset; the total wall time
// and aggregate throughput in the note line are where the
// BENCH_*.json scale targets are measured.
func Full(o Options, out io.Writer) error {
	d := o.withDefaults()
	iters := o.MCIterations
	if iters <= 0 {
		iters = 1_000_000
	}
	procs := o.Workers
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	const lambda = 1e-6
	policies := []sim.Policy{sim.Conventional, sim.AutoFailover, sim.DualParity}
	heps := []float64{0, 0.001, 0.01}

	points := make([]sweep.MCPoint, 0, len(policies)*len(heps))
	for _, pol := range policies {
		for _, hep := range heps {
			p := sim.PaperDefaults(4, lambda, hep)
			p.Policy = pol
			points = append(points, sweep.MCPoint{
				Label:  fmt.Sprintf("%s hep=%g", pol, hep),
				Params: p,
				Options: sim.Options{
					Iterations:      iters,
					MissionTime:     d.MissionTime,
					Seed:            d.Seed,
					Confidence:      d.Confidence,
					Bias:            o.Bias,
					TargetHalfWidth: o.TargetHalfWidth,
				},
			})
		}
	}

	workers, _, release, err := shard.WorkerSet{Local: procs}.Open()
	if err != nil {
		return err
	}
	defer release()

	start := time.Now()
	results, err := sweep.MonteCarlo(points, workers, nil)
	if err != nil {
		return fmt.Errorf("repro: full sweep: %w", err)
	}
	total := time.Since(start)

	title := fmt.Sprintf("Paper-scale sweep: %d iterations/point pipelined over %d local worker processes",
		iters, procs)
	if o.TargetHalfWidth > 0 {
		title = fmt.Sprintf("Paper-scale sweep: adaptive to half-width %.3g (cap %d iterations/point) pipelined over %d local worker processes",
			o.TargetHalfWidth, iters, procs)
	}
	t := report.NewTable(title,
		"policy", "hep", "availability", "nines", "ci half-width", "iters", "done at s")
	var totalIters int64
	for i, r := range results {
		pt := points[i]
		p := pt.Params
		totalIters += int64(r.Summary.Iterations)
		t.AddRow(
			p.Policy.String(),
			fmt.Sprintf("%g", p.HEP),
			fmt.Sprintf("%.9f", r.Summary.Availability),
			report.F3(r.Summary.Nines),
			report.E(r.Summary.HalfWidth),
			fmt.Sprintf("%d", r.Summary.Iterations),
			fmt.Sprintf("%.2f", r.Done.Seconds()),
		)
	}
	t.AddNote("lambda %g, mission %.3g h, seed %d, %d-disk arrays; pipelined summaries are bit-identical to standalone runs",
		lambda, d.MissionTime, d.Seed, 4)
	if o.Bias != 0 {
		var bs []string
		for i, r := range results {
			if r.Summary.Bias > 0 {
				bs = append(bs, fmt.Sprintf("%s x%.4g", points[i].Label, r.Summary.Bias))
			}
		}
		t.AddNote("failure-biased importance sampling (memoryless kernel): %s", strings.Join(bs, ", "))
	}
	t.AddNote("total wall %.2f s, %.2f Miter/s aggregate over the shared pool",
		total.Seconds(), float64(totalIters)/total.Seconds()/1e6)
	if _, err := t.WriteTo(out); err != nil {
		return err
	}
	return nil
}
