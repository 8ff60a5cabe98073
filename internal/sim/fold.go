package sim

import (
	"fmt"
	"sort"

	"herald/internal/stats"
)

// fold merges cell partials into a run's statistics in canonical cell
// order and evaluates the stopping rule of adaptive options at each
// boundary. It is the one merge of the package — Summarize, StopScan
// and Run all fold through it — so each of them builds the same
// floating-point merge tree and stops at the same boundary. Every
// partial is checked before it merges, so a partial that would corrupt
// the Summary (or crash the merge) is refused with an error instead.
type fold struct {
	o      Options // defaults applied
	biased bool
	// bias is the concrete factor every partial of a biased run must
	// carry: preset by CheckPartials, else taken from the first partial.
	bias float64
	// end is the folded prefix's end; partials must continue it and
	// stay within limit.
	end, limit int
	// rule is zero for fixed-N options. The rule may not bind below
	// floor; stopAt is the boundary it bound at, 0 while unbound.
	rule          stats.StopRule
	floor, stopAt int

	acc, du, dl   stats.Accumulator
	wav, wdu, wdl stats.WeightedAccumulator
	events        EventCounts
	downIters     int64
	hist          *stats.Histogram
}

// newFold starts a fold of partials of a run under o that tile
// [start, limit).
func newFold(o Options, start, limit int) (*fold, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f := &fold{o: o.withDefaults(), biased: o.Biased(), end: start, limit: limit}
	if o.Adaptive() {
		f.rule = stats.StopRule{TargetHalfWidth: o.TargetHalfWidth, Confidence: f.o.Confidence}
		if o.MaxIters > 0 {
			// Iterations is the adaptive minimum when MaxIters carries
			// the cap.
			f.floor = o.Iterations
		}
	}
	return f, nil
}

// check reports why pt cannot be the next partial of the fold: a range
// that is not one canonical cell of the run's cap or does not continue
// the prefix, a foreign seed or mission time, an observation count off
// its range, missing or inconsistent importance weights, or a
// histogram other than the options ask for.
func (f *fold) check(pt *Partial) error {
	n := int64(pt.End - pt.Start)
	capIters := f.o.IterationCap()
	cell := CellSize(capIters)
	switch {
	case pt.Start < 0 || pt.End <= pt.Start || pt.End > f.limit:
		return fmt.Errorf("sim: invalid partial range [%d,%d)", pt.Start, pt.End)
	case pt.Start%cell != 0 || pt.End != min(pt.Start+cell, capIters):
		return fmt.Errorf("sim: partial [%d,%d) is not one canonical %d-iteration cell of a %d-iteration run",
			pt.Start, pt.End, cell, capIters)
	case pt.Start < f.end:
		return fmt.Errorf("sim: partial [%d,%d) duplicates or overlaps iterations before %d", pt.Start, pt.End, f.end)
	case pt.Start > f.end:
		return fmt.Errorf("sim: iterations [%d,%d) missing from partials", f.end, pt.Start)
	case pt.Seed != f.o.Seed:
		return fmt.Errorf("sim: partial [%d,%d) ran under seed %d, want %d", pt.Start, pt.End, pt.Seed, f.o.Seed)
	case pt.MissionTime != f.o.MissionTime:
		return fmt.Errorf("sim: partial [%d,%d) ran under mission time %v, want %v",
			pt.Start, pt.End, pt.MissionTime, f.o.MissionTime)
	case pt.Avail.N() != n:
		return fmt.Errorf("sim: partial [%d,%d) carries %d observations, want %d", pt.Start, pt.End, pt.Avail.N(), n)
	}
	switch {
	case !f.biased:
		if pt.Bias != 0 {
			return fmt.Errorf("sim: partial [%d,%d) sampled under bias %v in an unbiased run", pt.Start, pt.End, pt.Bias)
		}
	case !(pt.Bias > 0) || pt.WAvail == nil || pt.WDownDU == nil || pt.WDownDL == nil:
		return fmt.Errorf("sim: partial [%d,%d) carries no importance weights for a biased run", pt.Start, pt.End)
	case f.bias != 0 && pt.Bias != f.bias:
		return fmt.Errorf("sim: partial [%d,%d) sampled under bias %v, want %v", pt.Start, pt.End, pt.Bias, f.bias)
	case pt.WAvail.N() != n:
		return fmt.Errorf("sim: partial [%d,%d) carries %d weighted observations, want %d",
			pt.Start, pt.End, pt.WAvail.N(), n)
	}
	bins, hi := f.o.HistogramBins, histMaxFor(f.o)
	if h := pt.Hist; (h != nil) != (bins > 0) ||
		h != nil && (h.Lo != 0 || h.Hi != hi || len(h.Counts) != bins || h.Total() != n) {
		return fmt.Errorf("sim: partial [%d,%d) does not carry the downtime histogram its options ask for (%d bins over [0,%v))",
			pt.Start, pt.End, bins, hi)
	}
	return nil
}

// add checks pt and merges it onto the folded prefix.
func (f *fold) add(pt *Partial) error {
	if err := f.check(pt); err != nil {
		return err
	}
	f.acc.Merge(&pt.Avail)
	f.du.Merge(&pt.DownDU)
	f.dl.Merge(&pt.DownDL)
	f.downIters += pt.DownIters
	f.events.Merge(pt.Events)
	if f.biased {
		f.bias = pt.Bias
		f.wav.Merge(pt.WAvail)
		f.wdu.Merge(pt.WDownDU)
		f.wdl.Merge(pt.WDownDL)
	}
	if pt.Hist != nil {
		if f.hist == nil {
			h := *pt.Hist
			h.Counts = append([]int64(nil), pt.Hist.Counts...)
			f.hist = &h
		} else {
			f.hist.Merge(pt.Hist)
		}
	}
	f.end = pt.End
	return nil
}

// addAll folds parts, given in any order, and checks they tile the
// fold's range exactly.
func (f *fold) addAll(parts []Partial) error {
	sorted := append([]Partial(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i := range sorted {
		if err := f.add(&sorted[i]); err != nil {
			return err
		}
	}
	if f.end != f.limit {
		return fmt.Errorf("sim: iterations [%d,%d) missing from partials", f.end, f.limit)
	}
	return nil
}

// bind evaluates the stopping rule at the folded prefix's end and
// reports whether it binds there. It binds at most once, never below
// the floor, and never for fixed-N options.
func (f *fold) bind() bool {
	if f.rule.TargetHalfWidth == 0 || f.stopAt != 0 || f.end < f.floor || !f.met() {
		return false
	}
	f.stopAt = f.end
	return true
}

// met evaluates the rule on the stream the run estimates from: the
// weighted stream at ESS-based effective degrees of freedom for biased
// runs.
func (f *fold) met() bool {
	if f.biased {
		return f.rule.MetWeighted(&f.wav)
	}
	return f.rule.Met(&f.acc, f.downIters)
}

// summary reports the folded prefix as a Summary.
func (f *fold) summary() Summary {
	s := Summary{
		Availability:      f.acc.Mean(),
		HalfWidth:         f.acc.HalfWidth(f.o.Confidence),
		MeanDowntimeDU:    f.du.Mean(),
		MeanDowntimeDL:    f.dl.Mean(),
		Iterations:        f.end,
		MissionTime:       f.o.MissionTime,
		Confidence:        f.o.Confidence,
		TargetHalfWidth:   f.o.TargetHalfWidth,
		Events:            f.events,
		DowntimeHistogram: f.hist,
	}
	if f.biased {
		// A biased run reports the self-normalized weighted estimates.
		s.Availability = f.wav.Mean()
		s.HalfWidth = f.wav.HalfWidth(f.o.Confidence)
		s.MeanDowntimeDU, s.MeanDowntimeDL = f.wdu.Mean(), f.wdl.Mean()
		s.Bias, s.ESS, s.AvailabilityHT = f.bias, f.wav.ESS(), f.wav.MeanHT()
	}
	s.Nines = stats.Nines(s.Availability)
	// Converged is the stopping rule's own verdict, with its
	// effective-N safeguards, not a raw half-width comparison: a
	// zero-variance or event-starved stream reports half-width 0 but is
	// never certified.
	s.Converged = f.rule.TargetHalfWidth > 0 && f.met()
	return s
}

// Summarize folds partials covering [0, o.Iterations) into a Summary.
// It enforces exactly-once merging: the partials, sorted by Start,
// must tile the run with no gap, overlap or duplicate, and each must
// pass the checks CheckPartials names. Partials produced along the
// canonical cell boundaries (RunRange output, in any grouping) fold in
// a fixed order, so the Summary is bit-identical however the run was
// partitioned.
func Summarize(o Options, parts []Partial) (Summary, error) {
	f, err := newFold(o, 0, o.Iterations)
	if err != nil {
		return Summary{}, err
	}
	if err := f.addAll(parts); err != nil {
		return Summary{}, err
	}
	return f.summary(), nil
}

// CheckPartials reports why parts, in any order, are not a valid
// result for the iterations [start, end) of a run of p under o. It
// applies Summarize's checks to the range: the parts must tile it, and
// each must carry the run's seed and mission time, one observation per
// iteration, the importance weights of a biased run sampled under the
// run's resolved bias factor, and the histogram the options ask for.
// Summarize only needs one factor across its partials; pinning it here
// keeps ranges checked one at a time consistent with each other. It is
// the validity test for partials from outside the process: shard
// results and checkpoint records.
func CheckPartials(p ArrayParams, o Options, start, end int, parts []Partial) error {
	f, err := newFold(o, start, end)
	if err != nil {
		return err
	}
	if f.biased {
		if f.bias, err = resolveBias(p, o); err != nil {
			return err
		}
	}
	return f.addAll(parts)
}
