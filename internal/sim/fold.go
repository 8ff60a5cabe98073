package sim

import (
	"fmt"
	"math"
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
	// The stopping rule of adaptive options may not bind below floor;
	// stopAt is the boundary it bound at, 0 while unbound.
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
	if o.MaxIters > 0 {
		// Iterations is the adaptive minimum when MaxIters carries the
		// cap.
		f.floor = o.Iterations
	}
	return f, nil
}

// check reports why pt cannot be the next partial of the fold: a range
// that is not one canonical cell of the run's cap or does not continue
// the prefix, a foreign seed or mission time, an observation count off
// its range, missing or inconsistent importance weights, or a
// histogram other than the options ask for, or a count of iterations
// with downtime that the range cannot hold.
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
	case pt.DownIters < 0 || pt.DownIters > n:
		return fmt.Errorf("sim: partial [%d,%d) counts %d iterations with downtime, outside [0,%d]",
			pt.Start, pt.End, pt.DownIters, n)
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

// The stopping rule never binds before stopMinN iterations and
// stopMinEvents informative ones (iterations with downtime, or the ESS
// of a biased stream), however tight the interval looks.
const (
	stopMinN      = 256
	stopMinEvents = 16
)

// interval returns the folded prefix's confidence half-width, the
// run's one interval: the Summary reports it and the stopping rule
// compares it with the target (see Summary.HalfWidth). Its Student-t
// quantile is taken at the rule's effective degrees of freedom, since
// a zero-inflated stream knows only as much as its informative
// observations. A prefix that saw no downtime answers, unbiased, the
// exact bound 1-(1-c)^(1/n) on the chance that an iteration sees any;
// biased, +Inf, since the proposal law's chance says nothing of the
// nominal law's. Zero variance, no degrees of freedom and NaN or
// negative moments (a corrupt partial) answer +Inf too: a run never
// reports, or stops on, an interval it cannot interpret.
func (f *fold) interval() float64 {
	n := f.acc.N()
	se, df := f.acc.StdErr(), float64(f.downIters)
	if f.biased {
		se, df = f.wav.StdErr(), f.wav.ESS()-1
	} else if f.downIters == 0 {
		return -math.Expm1(math.Log1p(-f.o.Confidence) / float64(n))
	}
	df = min(df, float64(n-1))
	if !(se > 0 && df > 0) {
		return math.Inf(1)
	}
	hw := stats.StudentTQuantile(df, 0.5+f.o.Confidence/2) * se
	if math.IsNaN(hw) {
		return math.Inf(1)
	}
	return hw
}

// looks reports whether the stopping rule may look at the folded
// prefix: the options are adaptive and the prefix has reached both
// floors. Until it may, no Student-t quantile is computed.
func (f *fold) looks() bool {
	events := float64(f.downIters)
	if f.biased {
		events = f.wav.ESS()
	}
	return f.o.Adaptive() && f.acc.N() >= stopMinN && events >= stopMinEvents
}

// bind evaluates the stopping rule at the folded prefix's end and
// reports whether it binds there: the rule may look and the interval
// is at or below the target. It binds at most once, never below the
// floor, and never for fixed-N options.
func (f *fold) bind() bool {
	if f.stopAt != 0 || f.end < f.floor || !f.looks() || !(f.interval() <= f.o.TargetHalfWidth) {
		return false
	}
	f.stopAt = f.end
	return true
}

// summary reports the folded prefix as a Summary.
func (f *fold) summary() Summary {
	s := Summary{
		Availability:      f.acc.Mean(),
		HalfWidth:         f.interval(),
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
		s.MeanDowntimeDU, s.MeanDowntimeDL = f.wdu.Mean(), f.wdl.Mean()
		s.Bias, s.ESS, s.AvailabilityHT = f.bias, f.wav.ESS(), f.wav.MeanHT()
	}
	s.Nines = stats.Nines(s.Availability)
	// Converged is the rule's own verdict on the reported interval:
	// an event-starved run that went to its cap reports false.
	s.Converged = f.looks() && s.HalfWidth <= f.o.TargetHalfWidth
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
