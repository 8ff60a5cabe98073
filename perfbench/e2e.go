package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"herald/internal/stats"
)

// endToEnd computes the end-to-end metrics of an untraced window. core
// holds the metrics every workload reports; extra holds the
// workload-specific figures printed beside them.
func endToEnd(in *inputs, win *window, setupS []float64, rssMB float64) (core, extra map[string]metric) {
	var lat []float64
	failed, good := 0, 0
	for i := range win.ops {
		op := &win.ops[i]
		l := ms(op.Latency())
		lat = append(lat, l)
		switch {
		case op.Err != nil:
			failed++
		case l <= ms(serveLimit):
			good++
		}
	}
	wall := passWall(win)
	// Percentiles are taken per slice (pass, or third of the schedule)
	// and reported as their median, so a stall confined to one slice
	// does not move them.
	slices := map[int][]float64{}
	for i := range win.ops {
		slices[win.ops[i].Slice] = append(slices[win.ops[i].Slice], ms(win.ops[i].Latency()))
	}
	var p50s, tails []float64
	tailQ, beyond := 1.0, len(lat)
	for _, xs := range slices {
		q, b := tailQuantile(len(xs))
		tailQ, beyond = math.Min(tailQ, q), min(beyond, b)
		p50s = append(p50s, percentile(xs, 0.5))
		tails = append(tails, percentile(xs, q))
	}
	p50, tail := stats.Median(p50s), stats.Median(tails)
	core = map[string]metric{
		"setup_s":     {stats.Median(setupS), "s"},
		"wall_s":      {wall, "s"},
		"lat_p50_ms":  {p50, "ms"},
		"lat_tail_ms": {tail, "ms"},
		"peak_rss_mb": {rssMB, "MB"},
	}
	extra = map[string]metric{
		"fail_frac":       {float64(failed) / float64(max(1, len(win.ops))), "ratio"},
		"lat_samples":     {float64(len(lat)), "count"},
		"lat_slices":      {float64(len(slices)), "count"},
		"lat_tail_pct":    {100 * tailQ, "%"},
		"lat_tail_beyond": {float64(beyond), "count"},
	}
	switch in.Workload {
	case "precision-tcp":
		extra["ttt_p50_ms"] = metric{p50, "ms"}
		extra["ttt_tail_ms"] = metric{tail, "ms"}
	case "serve-mixed":
		extra["goodput_rps"] = metric{float64(good) / win.end.Sub(win.start).Seconds(), "req/s"}
		extra["offered_rps"] = metric{float64(len(win.ops)) / win.end.Sub(win.start).Seconds(), "req/s"}
		byClass := map[string][]float64{}
		for i := range win.ops {
			c := win.ops[i].Run.Class
			byClass[c] = append(byClass[c], ms(win.ops[i].Latency()))
		}
		for c, xs := range byClass {
			extra["lat_p50_ms."+c] = metric{stats.Median(xs), "ms"}
		}
	case "paper-sweep":
		var iters float64
		for i := range in.Runs {
			iters += float64(in.Runs[i].Options.Iterations)
		}
		extra["miter_per_s"] = metric{iters / wall / 1e6, "Miter/s"}
	}
	return core, extra
}

// printMetrics writes one aligned "name value unit" line per metric,
// sorted by name.
func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "== %s\n", title)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// passWall is the median pass of a closed-loop window, or the whole of
// an open-loop one.
func passWall(win *window) float64 {
	if len(win.passes) == 0 {
		return win.end.Sub(win.start).Seconds()
	}
	var walls []float64
	for _, p := range win.passes {
		walls = append(walls, p[1].Sub(p[0]).Seconds())
	}
	return stats.Median(walls)
}
