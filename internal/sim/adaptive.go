package sim

import "math"

// Adaptive (precision-targeted) execution. A fixed-N run answers "what
// does 1e6 iterations say"; an adaptive run answers the question the
// paper actually poses — "what is the availability to within this
// confidence half-width" — by executing the canonical cells of
// [0, IterationCap()) as a growing prefix and stopping at the first
// cell boundary where the stopping rule binds.
//
// Determinism: the rule is evaluated on the cells folded in canonical
// index order (never in arrival order), so the boundary it binds at —
// and therefore the reported Summary — is a pure function of the
// parameters and options. Workers race ahead of the folded prefix and
// their excess cells are discarded, which is why replay determinism is
// pinned on the iterations actually *kept*: re-running with the same
// options keeps the same prefix and reproduces the Summary bit for
// bit, for every worker count, in process or sharded
// (internal/shard folds every run, fixed or adaptive, through this
// scan).

// StopScan is the prefix fold of one run. Cell partials are fed
// strictly in canonical cell order; after each fold the Student-t
// stopping rule of adaptive options is re-evaluated at the cell's end
// boundary. It folds through the same merge as Run and Summarize, so
// the shard coordinator stops at the boundary an in-process run stops
// at and reads the same Summary off the scan. A fixed-N run is the
// case whose rule never binds: its scan folds the run to the cap.
type StopScan struct {
	f *fold
}

// NewStopScan builds the scan of a run under o, adaptive or fixed-N,
// whose prefix may grow to o.IterationCap(). It errors when o fails
// Validate.
func NewStopScan(o Options) (*StopScan, error) {
	f, err := newFold(o, 0, o.IterationCap())
	if err != nil {
		return nil, err
	}
	return &StopScan{f: f}, nil
}

// Feed folds the next canonical cell partial — which must start
// exactly at End() and pass CheckPartials — and reports whether the
// stopping rule binds at its end boundary. Once the rule has bound,
// further feeds fold but never re-bind; for fixed-N options it never
// binds. A partial the checks refuse panics: partials from outside the
// process go through CheckPartials first.
func (s *StopScan) Feed(pt *Partial) bool {
	if err := s.f.add(pt); err != nil {
		panic(err)
	}
	return s.f.bind()
}

// End returns the contiguous prefix folded so far, in iterations.
func (s *StopScan) End() int { return s.f.end }

// Summary reports the folded prefix as a Summary: the run's result once
// the rule bound or the prefix reached the cap, bit-identical to Run
// and to Summarize over the same partials. The Summary shares the
// scan's histogram, so feed nothing further once it is read.
func (s *StopScan) Summary() Summary { return s.f.summary() }

// EffectiveHalfWidth returns the rule's safeguarded half-width of the
// folded prefix: +Inf while the safeguards are unmet, and always for
// fixed-N options, which have no rule.
func (s *StopScan) EffectiveHalfWidth() float64 {
	switch {
	case s.f.rule.TargetHalfWidth == 0:
		return math.Inf(1)
	case s.f.biased:
		return s.f.rule.EffectiveHalfWidthWeighted(&s.f.wav)
	}
	return s.f.rule.EffectiveHalfWidth(&s.f.acc, s.f.downIters)
}
