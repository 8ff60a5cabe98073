package sim

import (
	"math"
	"testing"

	"herald/internal/stats"
)

// synthFold returns an unbiased adaptive fold whose prefix holds n
// observations, events of them lo and the rest 1.0: the zero-inflated
// shape of an availability stream, in which most lifetimes see no
// downtime.
func synthFold(n, events int64, lo, target float64) *fold {
	f := &fold{o: Options{TargetHalfWidth: target, Confidence: 0.99}, downIters: events, end: int(n)}
	for i := int64(0); i < n; i++ {
		if i < events {
			f.acc.Add(lo)
		} else {
			f.acc.Add(1)
		}
	}
	return f
}

// synthWeightedFold is synthFold's biased counterpart, with unit
// weights.
func synthWeightedFold(n, events int64, lo, target float64) *fold {
	f := synthFold(n, events, lo, target)
	f.biased = true
	for i := int64(0); i < n; i++ {
		if i < events {
			f.wav.Add(lo, 1)
		} else {
			f.wav.Add(1, 1)
		}
	}
	return f
}

// TestFoldStopFloors pins that the rule never binds before its floors
// of stopMinN iterations and stopMinEvents iterations with downtime,
// however tight the stream looks, and reports +Inf to the scan until
// then.
func TestFoldStopFloors(t *testing.T) {
	for _, c := range []struct {
		name      string
		n, events int64
		want      bool
	}{
		{"below the iteration floor", stopMinN - 1, stopMinEvents, false},
		{"below the event floor", stopMinN, stopMinEvents - 1, false},
		{"both floors met", stopMinN, stopMinEvents, true},
	} {
		f := synthFold(c.n, c.events, 0.5, 10)
		if got := f.bind(); got != c.want {
			t.Errorf("%s: bind %v, want %v", c.name, got, c.want)
		}
		scan := &StopScan{f: synthFold(c.n, c.events, 0.5, 10)}
		if hw := scan.EffectiveHalfWidth(); math.IsInf(hw, 1) == c.want {
			t.Errorf("%s: scan half-width %v", c.name, hw)
		}
	}
}

// TestFoldStopDefaults pins the defaults: an unset confidence computes
// the interval at 0.99, and fixed-N options have no rule: they never
// bind or converge, and the scan reports +Inf.
func TestFoldStopDefaults(t *testing.T) {
	f, err := newFold(Options{Iterations: 4096, MissionTime: 1e5, TargetHalfWidth: 10}, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if f.o.Confidence != 0.99 {
		t.Errorf("default confidence %v, want 0.99", f.o.Confidence)
	}
	want := synthFold(4096, 64, 0.5, 10)
	f.acc, f.downIters, f.end = want.acc, want.downIters, want.end
	if f.interval() != want.interval() {
		t.Errorf("default-confidence interval %v, want the 0.99 interval %v", f.interval(), want.interval())
	}
	fixed := synthFold(4096, 64, 0.5, 0)
	if fixed.bind() || fixed.summary().Converged {
		t.Error("fixed-N options bound or converged")
	}
	if hw := (&StopScan{f: fixed}).EffectiveHalfWidth(); !math.IsInf(hw, 1) {
		t.Errorf("fixed-N scan half-width %v, want +Inf", hw)
	}
	if hw := fixed.summary().HalfWidth; !(hw > 0) || math.IsInf(hw, 0) {
		t.Errorf("fixed-N Summary half-width %v, want the interval", hw)
	}
}

// TestFoldZeroVariance pins the degenerate-stream guard: a stream of
// identical observations carries no information about its spread, so
// its interval is +Inf and the rule never binds on it, even with every
// iteration counted as an event.
func TestFoldZeroVariance(t *testing.T) {
	f := synthFold(1000, 1000, 0.5, 1e-3)
	if hw := f.interval(); !math.IsInf(hw, 1) {
		t.Errorf("zero-variance interval %v, want +Inf", hw)
	}
	if f.bind() || f.summary().Converged {
		t.Error("rule bound on a zero-variance stream")
	}
}

// TestFoldEffectiveDF pins the Student-t safeguard: with few
// informative observations the interval takes the wider quantile at
// df = events, and with events >= n-1 it is the plain df = n-1
// interval.
func TestFoldEffectiveDF(t *testing.T) {
	f := synthFold(10000, 3, 0.9, 1e-9)
	plain := f.acc.HalfWidth(0.99)
	want := plain * stats.StudentTQuantile(3, 0.995) / stats.StudentTQuantile(9999, 0.995)
	if got := f.interval(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("3 events over 10000 iterations: interval %g, want %g", got, want)
	}
	if got := f.summary().HalfWidth; got != f.interval() {
		t.Errorf("Summary half-width %g, interval %g", got, f.interval())
	}
	rich := synthFold(10000, 9999, 0.9, 1e-9)
	if got, want := rich.interval(), rich.acc.HalfWidth(0.99); math.Abs(got-want) > 1e-12*want {
		t.Errorf("event-rich stream: interval %g, want the df = n-1 %g", got, want)
	}
}

// TestFoldStopReportsRuleHalfWidth pins that a run reports the interval
// its rule certified: at a bound stop the Summary's half-width is the
// rule's half-width and at most the target.
func TestFoldStopReportsRuleHalfWidth(t *testing.T) {
	bound := 0
	for events := int64(16); events <= 4096; events *= 4 {
		f := synthFold(8192, events, 0.8, 0.02)
		rule := (&StopScan{f: f}).EffectiveHalfWidth()
		if !f.bind() {
			continue
		}
		bound++
		s := f.summary()
		if s.HalfWidth != rule || !(s.HalfWidth <= 0.02) || !s.Converged {
			t.Errorf("events=%d: Summary half-width %g, rule %g, target 0.02, converged %v",
				events, s.HalfWidth, rule, s.Converged)
		}
	}
	if bound == 0 {
		t.Fatal("no stream bound; the test checks nothing")
	}
	// And through a real adaptive run.
	p := adaptiveTestParams(Conventional)
	o := Options{Iterations: 60000, MissionTime: 2e5, Seed: 99, Workers: 2, TargetHalfWidth: 1.2e-5}
	parts, err := RunRange(p, Options{Iterations: o.Iterations, MissionTime: o.MissionTime, Seed: o.Seed}, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewStopScan(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if scan.Feed(&parts[i]) {
			break
		}
	}
	s := scan.Summary()
	if !s.Converged || s.HalfWidth != scan.EffectiveHalfWidth() || s.HalfWidth > o.TargetHalfWidth {
		t.Errorf("adaptive run: Summary half-width %g, rule %g, target %g, converged %v",
			s.HalfWidth, scan.EffectiveHalfWidth(), o.TargetHalfWidth, s.Converged)
	}
}

// TestFoldZeroEventBound pins the interval of a prefix that saw no
// downtime: unbiased, the exact one-sided bound 1 - (1-c)^(1/n) on the
// chance of any downtime per iteration; biased, +Inf. Neither binds.
func TestFoldZeroEventBound(t *testing.T) {
	f := synthFold(2000, 0, 0, 1)
	want := 1 - math.Pow(0.01, 1.0/2000)
	if got := f.interval(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("zero-event interval %g, want %g", got, want)
	}
	if s := f.summary(); s.HalfWidth != f.interval() || s.Converged || f.bind() {
		t.Errorf("zero-event Summary half-width %g, converged %v", s.HalfWidth, s.Converged)
	}
	b := synthWeightedFold(2000, 0, 0, 1)
	if hw := b.summary().HalfWidth; !math.IsInf(hw, 1) {
		t.Errorf("biased zero-event half-width %g, want +Inf", hw)
	}
}

// TestFoldDegenerateInputs is the corrupt-partial regression: a
// negative event count and NaN or negative moments answer +Inf, in the
// Summary and to the rule, and never bind.
func TestFoldDegenerateInputs(t *testing.T) {
	neg := synthFold(1000, 50, 0.5, 10)
	neg.downIters = -3
	var nan, negM2 fold
	nan.o, negM2.o = neg.o, neg.o
	nan.downIters, negM2.downIters = 50, 50
	nan.acc.SetState(stats.AccumulatorState{N: 1000, Mean: 0.9, M2: math.NaN(), Min: 0.5, Max: 1})
	negM2.acc.SetState(stats.AccumulatorState{N: 1000, Mean: 0.9, M2: -1, Min: 0.5, Max: 1})
	for name, f := range map[string]*fold{"negative events": neg, "NaN m2": &nan, "negative m2": &negM2} {
		if hw := f.interval(); !math.IsInf(hw, 1) {
			t.Errorf("%s: interval %v, want +Inf", name, hw)
		}
		if f.bind() || f.summary().Converged {
			t.Errorf("%s: rule bound", name)
		}
	}
}

// TestFoldWeighted pins the biased stream's rule: unit weights give
// the unweighted interval at events = n-1, the ESS floor replaces the
// event floor, and zero variance or degenerate weighted moments answer
// +Inf and never bind.
func TestFoldWeighted(t *testing.T) {
	if !synthWeightedFold(stopMinN, 32, 0.5, 10).bind() {
		t.Error("weighted rule did not bind on a healthy stream with a huge target")
	}
	if synthWeightedFold(stopMinN-1, 32, 0.5, 10).bind() {
		t.Error("weighted rule bound below the iteration floor")
	}

	// ESS floor: one dominating weight collapses ESS to ~1.
	dom := synthFold(0, 0, 0, 10)
	dom.biased = true
	for i := 0; i < stopMinN; i++ {
		dom.acc.Add(1)
		dom.wav.Add(1, 1e-12)
	}
	dom.acc.Add(0.5)
	dom.wav.Add(0.5, 1e6)
	if dom.bind() {
		t.Errorf("degenerate-weight stream (ESS %g) bound", dom.wav.ESS())
	}
	if hw := (&StopScan{f: dom}).EffectiveHalfWidth(); !math.IsInf(hw, 1) {
		t.Errorf("degenerate-weight stream: scan half-width %v, want +Inf", hw)
	}

	flat := synthWeightedFold(1000, 0, 0, 10)
	if hw := flat.interval(); !math.IsInf(hw, 1) || flat.bind() {
		t.Errorf("zero-variance weighted stream: interval %v", hw)
	}

	for name, st := range map[string]stats.WeightedAccumulatorState{
		"NaN v2":      {N: 1000, W: 1000, W2: 1000, Mean: 0.9, M2: 1, S1: 0, V2: math.NaN()},
		"NaN w2":      {N: 1000, W: 1000, W2: math.NaN(), Mean: 0.9, M2: 1, S1: 0, V2: 1},
		"negative v2": {N: 1000, W: 1000, W2: 1000, Mean: 0.9, M2: 1, S1: 0, V2: -4},
		"zero mass":   {N: 1000, W: 0, W2: 0, Mean: 0, M2: 0, S1: 0, V2: 0},
	} {
		f := synthWeightedFold(1000, 100, 0.5, 10)
		f.wav.SetState(st)
		if hw := f.interval(); !math.IsInf(hw, 1) {
			t.Errorf("%s: interval %v, want +Inf", name, hw)
		}
		if f.bind() {
			t.Errorf("%s: weighted rule bound", name)
		}
	}

	// Unit weights reproduce the unweighted interval at events = n-1.
	got := synthWeightedFold(4096, 512, 0.8, 10).interval()
	want := synthFold(4096, 512, 0.8, 10)
	want.downIters = 4095
	if w := want.interval(); math.Abs(got-w) > 1e-9*w {
		t.Errorf("unit weights: weighted %g vs unweighted %g", got, w)
	}
}

// TestCheckPartialsRefusesImpossibleDownIters pins that a partial whose
// count of iterations with downtime lies outside [0, End-Start] is
// refused: the count sets an unbiased run's degrees of freedom.
func TestCheckPartialsRefusesImpossibleDownIters(t *testing.T) {
	p := adaptiveTestParams(Conventional)
	o := Options{Iterations: 4000, MissionTime: 2e5, Seed: 9, Workers: 2}
	for _, c := range []struct {
		name string
		set  func(*Partial)
		ok   bool
	}{
		{"as computed", func(*Partial) {}, true},
		{"every iteration", func(pt *Partial) { pt.DownIters = int64(pt.End - pt.Start) }, true},
		{"negative", func(pt *Partial) { pt.DownIters = -1 }, false},
		{"beyond the range", func(pt *Partial) { pt.DownIters = int64(pt.End-pt.Start) + 1 }, false},
	} {
		parts, err := RunRange(p, o, 0, o.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		c.set(&parts[2])
		if err := CheckPartials(p, o, 0, o.Iterations, parts); (err == nil) != c.ok {
			t.Errorf("%s: CheckPartials returned %v", c.name, err)
		}
	}
}
