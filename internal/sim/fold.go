package sim

import (
	"errors"
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

	down   Downtime
	events EventCounts
	hist   *stats.Histogram
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
// the prefix, a foreign seed or mission time, a bias factor other than
// the run's, a downtime stream that cannot be the range's (see
// Downtime.check), or a histogram other than the options ask for.
func (f *fold) check(pt *Partial) error {
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
	case !f.biased && pt.Bias != 0:
		return fmt.Errorf("sim: partial [%d,%d) sampled under bias %v in an unbiased run", pt.Start, pt.End, pt.Bias)
	case f.biased && !(pt.Bias > 0):
		return fmt.Errorf("sim: partial [%d,%d) carries no bias factor for a biased run", pt.Start, pt.End)
	case f.bias != 0 && pt.Bias != f.bias:
		return fmt.Errorf("sim: partial [%d,%d) sampled under bias %v, want %v", pt.Start, pt.End, pt.Bias, f.bias)
	}
	if err := pt.Down.check(int64(pt.End-pt.Start), f.o.MissionTime, f.biased); err != nil {
		return fmt.Errorf("sim: partial [%d,%d) %w", pt.Start, pt.End, err)
	}
	bins, hi := f.o.HistogramBins, histMaxFor(f.o)
	if h := pt.Hist; (h != nil) != (bins > 0) ||
		h != nil && (h.Lo != 0 || h.Hi != hi || len(h.Counts) != bins || h.Total() != int64(pt.End-pt.Start)) {
		return fmt.Errorf("sim: partial [%d,%d) does not carry the downtime histogram its options ask for (%d bins over [0,%v))",
			pt.Start, pt.End, bins, hi)
	}
	return nil
}

// check reports why d cannot be the downtime stream of n iterations
// over the mission, biased or not: a count off the range, hours that
// are negative or not finite, a mean downtime above the mission, in a
// biased run weights that are not positive and finite or an ESS above
// n, hours weights the stream's weights cannot hold, weights other
// than 1 in an unbiased run, or a split into causes that does not add
// up to the hours. A downtime iteration whose weight underflowed to 0
// counts in Hours without mass, and passes. Whatever passes folds into
// a Summary that encodes, with its availability in [0, 1].
func (d *Downtime) check(n int64, mission float64, biased bool) error {
	h := &d.Hours
	k, hours, split := h.N(), h.SumW()*h.Mean(), d.DU+d.DL
	finiteNonNeg := func(vs ...float64) bool {
		for _, v := range vs {
			if !(v >= 0) || math.IsInf(v, 1) {
				return false
			}
		}
		return true
	}
	switch {
	case d.N != n:
		return fmt.Errorf("carries %d observations, want %d", d.N, n)
	case k < 0 || k > n:
		return fmt.Errorf("counts %d iterations with downtime, outside [0,%d]", k, n)
	case !finiteNonNeg(h.Mean(), d.DU, d.DL):
		return errors.New("carries negative or non-finite downtime hours")
	case h.Mean() > mission:
		return fmt.Errorf("reports a mean downtime of %v h, above its %v h mission", h.Mean(), mission)
	case biased && !(d.W > 0 && d.W2 > 0 && finiteNonNeg(d.W, d.W2)):
		return fmt.Errorf("carries no importance weights for a biased run (weights %v, squares %v)", d.W, d.W2)
	case biased && d.ess() > float64(n)*(1+1e-9):
		return fmt.Errorf("carries an effective sample size of %v, above its %d iterations", d.ess(), n)
	case !finiteNonNeg(h.SumW(), h.SumW2()) || h.SumW() > d.W || h.SumW2() > d.W2:
		return fmt.Errorf("weighs its downtime iterations %v (squares %v), beyond its weights %v (%v)",
			h.SumW(), h.SumW2(), d.W, d.W2)
	case !biased && (d.W != float64(n) || d.W2 != float64(n) || h.SumW() != float64(k) || h.SumW2() != float64(k)):
		return errors.New("carries importance weights other than 1 in an unbiased run")
	// A product w·du that underflows loses up to half a subnormal step.
	case !(math.Abs(split-hours) <= 1e-9*split+float64(k)*0x1p-1022):
		return fmt.Errorf("splits %v weighted downtime hours into %v human-error and %v data-loss hours", hours, d.DU, d.DL)
	}
	return nil
}

// add checks pt and merges it onto the folded prefix.
func (f *fold) add(pt *Partial) error {
	if err := f.check(pt); err != nil {
		return err
	}
	f.down.merge(&pt.Down)
	f.events.Merge(pt.Events)
	if f.biased {
		f.bias = pt.Bias
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

// meanHours returns μ = Σw·D/Σw, the self-normalized mean downtime per
// iteration in hours, over every iteration of the stream: one without
// downtime adds its weight and no hours.
func (d *Downtime) meanHours() float64 { return d.Hours.Mean() * (d.Hours.SumW() / d.W) }

// stdErr returns the delta-method standard error of meanHours, in
// hours: sqrt(V·N/(N-1))/W with V = Σw²(D-μ)² over all N iterations,
// in which each iteration without downtime deviates by the whole mean.
// With unit weights it is the plain standard error of the mean.
func (d *Downtime) stdErr() float64 {
	mu, n := d.meanHours(), float64(d.N)
	v := d.Hours.Deviations(mu) + mu*mu*(d.W2-d.Hours.SumW2())
	return math.Sqrt(v*n/(n-1)) / d.W
}

// ess returns the Kish effective sample size W²/W2, ordered so that
// large weights cannot overflow it.
func (d *Downtime) ess() float64 { return d.W / d.W2 * d.W }

// interval returns the folded prefix's confidence half-width, the
// run's one interval: the Summary reports it and the stopping rule
// compares it with the target (see Summary.HalfWidth). Its Student-t
// quantile is taken at the rule's effective degrees of freedom, since
// a zero-inflated stream knows only as much as its informative
// observations. A prefix that saw no downtime answers, unbiased, the
// exact bound 1-(1-c)^(1/n) on the chance that an iteration sees any;
// biased, +Inf, since the proposal law's chance says nothing of the
// nominal law's. Zero variance, no degrees of freedom and NaN or
// negative moments answer +Inf too: a run never reports, or stops on,
// an interval it cannot interpret.
func (f *fold) interval() float64 {
	d := &f.down
	n, df := float64(d.N), float64(d.Hours.N())
	if f.biased {
		df = d.ess() - 1
	} else if df == 0 {
		return -math.Expm1(math.Log1p(-f.o.Confidence) / n)
	}
	df = min(df, n-1)
	se := d.stdErr() / f.o.MissionTime
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
	events := float64(f.down.Hours.N())
	if f.biased {
		events = f.down.ess()
	}
	return f.o.Adaptive() && f.down.N >= stopMinN && events >= stopMinEvents
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

// summary reports the folded prefix as a Summary, every field derived
// from the one downtime stream; an unbiased run is its unit-weight
// case.
func (f *fold) summary() Summary {
	d, m := &f.down, f.o.MissionTime
	s := Summary{
		// Merge rounding can carry a stream that was down for the
		// whole mission a few ulps past it.
		Availability:      max(0, 1-d.meanHours()/m),
		HalfWidth:         f.interval(),
		MeanDowntimeDU:    d.DU / d.W,
		MeanDowntimeDL:    d.DL / d.W,
		Iterations:        f.end,
		MissionTime:       m,
		Confidence:        f.o.Confidence,
		TargetHalfWidth:   f.o.TargetHalfWidth,
		Events:            f.events,
		DowntimeHistogram: f.hist,
	}
	if f.biased {
		// The Horvitz–Thompson estimate Σw(1-D/M)/N rides beside the
		// self-normalized one as a weight-health diagnostic.
		s.Bias, s.ESS = f.bias, d.ess()
		s.AvailabilityHT = (d.W - d.Hours.SumW()*(d.Hours.Mean()/m)) / float64(d.N)
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
