package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"herald/internal/stats"
)

// synthFold returns an unbiased adaptive fold over a one-hour mission
// whose prefix holds n iterations, events of them down 1-lo hours (an
// availability of lo) and the rest never down: the zero-inflated shape
// of an availability stream, in which most lifetimes see no downtime.
func synthFold(n, events int64, lo, target float64) *fold {
	f := &fold{o: Options{MissionTime: 1, TargetHalfWidth: target, Confidence: 0.99}, end: int(n)}
	for i := int64(0); i < n; i++ {
		if i < events {
			f.down.add(1-lo, 0, 1)
		} else {
			f.down.add(0, 0, 1)
		}
	}
	return f
}

// synthWeightedFold is synthFold's biased counterpart, with unit
// weights.
func synthWeightedFold(n, events int64, lo, target float64) *fold {
	f := synthFold(n, events, lo, target)
	f.biased = true
	return f
}

// patchHours overwrites fields of h's wire form as a corrupt frame
// would carry them; patch is a JSON object such as {"n":-1}.
func patchHours(t testing.TB, h *stats.WeightedAccumulator, patch string) {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]json.RawMessage{}
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(patch), &fields); err != nil {
		t.Fatal(err)
	}
	if b, err = json.Marshal(fields); err == nil {
		err = json.Unmarshal(b, h)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// plainHalfWidth returns stats.Accumulator's df n-1 half-width at 99%
// over synthFold's explicit availability stream.
func plainHalfWidth(n, events int64, lo float64) float64 {
	var a stats.Accumulator
	for i := int64(0); i < n; i++ {
		if i < events {
			a.Add(lo)
		} else {
			a.Add(1)
		}
	}
	return a.HalfWidth(0.99)
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
	f, err := newFold(Options{Iterations: 4096, MissionTime: 1, TargetHalfWidth: 10}, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if f.o.Confidence != 0.99 {
		t.Errorf("default confidence %v, want 0.99", f.o.Confidence)
	}
	want := synthFold(4096, 64, 0.5, 10)
	f.down, f.end = want.down, want.end
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
	plain := plainHalfWidth(10000, 3, 0.9)
	want := plain * stats.StudentTQuantile(3, 0.995) / stats.StudentTQuantile(9999, 0.995)
	if got := f.interval(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("3 events over 10000 iterations: interval %g, want %g", got, want)
	}
	if got := f.summary().HalfWidth; got != f.interval() {
		t.Errorf("Summary half-width %g, interval %g", got, f.interval())
	}
	rich := synthFold(10000, 9999, 0.9, 1e-9)
	if got, want := rich.interval(), plainHalfWidth(10000, 9999, 0.9); math.Abs(got-want) > 1e-12*want {
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
// negative event count, NaN hours and negative deviations answer +Inf,
// in the Summary and to the rule, and never bind.
func TestFoldDegenerateInputs(t *testing.T) {
	for name, set := range map[string]func(*stats.WeightedAccumulator){
		"negative events":     func(h *stats.WeightedAccumulator) { patchHours(t, h, `{"n":-3}`) },
		"NaN hours":           func(h *stats.WeightedAccumulator) { h.Add(math.NaN(), 1) },
		"negative deviations": func(h *stats.WeightedAccumulator) { patchHours(t, h, `{"v2":-1e9}`) },
	} {
		f := synthFold(1000, 50, 0.5, 10)
		set(&f.down.Hours)
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
	dom := synthWeightedFold(0, 0, 0, 10)
	for i := 0; i < stopMinN; i++ {
		dom.down.add(0, 0, 1e-12)
	}
	dom.down.add(0.5, 0, 1e6)
	dom.end = stopMinN + 1
	if dom.bind() {
		t.Errorf("degenerate-weight stream (ESS %g) bound", dom.down.ess())
	}
	if hw := (&StopScan{f: dom}).EffectiveHalfWidth(); !math.IsInf(hw, 1) {
		t.Errorf("degenerate-weight stream: scan half-width %v, want +Inf", hw)
	}

	flat := synthWeightedFold(1000, 0, 0, 10)
	if hw := flat.interval(); !math.IsInf(hw, 1) || flat.bind() {
		t.Errorf("zero-variance weighted stream: interval %v", hw)
	}

	for name, set := range map[string]func(*Downtime){
		"NaN hours":           func(d *Downtime) { d.Hours.Add(math.NaN(), 1) },
		"NaN weight squares":  func(d *Downtime) { d.W2 = math.NaN() },
		"negative deviations": func(d *Downtime) { patchHours(t, &d.Hours, `{"v2":-1e9}`) },
		"zero mass":           func(d *Downtime) { d.W, d.W2, d.Hours = 0, 0, stats.WeightedAccumulator{} },
	} {
		f := synthWeightedFold(1000, 100, 0.5, 10)
		set(&f.down)
		if hw := f.interval(); !math.IsInf(hw, 1) {
			t.Errorf("%s: interval %v, want +Inf", name, hw)
		}
		if f.bind() {
			t.Errorf("%s: weighted rule bound", name)
		}
	}

	// Unit weights reproduce the unweighted interval at events = n-1.
	got := synthWeightedFold(4096, 512, 0.8, 10).interval()
	if w := plainHalfWidth(4096, 512, 0.8); math.Abs(got-w) > 1e-9*w {
		t.Errorf("unit weights: weighted %g vs unweighted %g", got, w)
	}
}

// TestCheckPartialsRefusesImpossibleDownStreams pins that a partial
// whose downtime stream cannot be its range's is refused, each for its
// own reason, and that honest streams pass: among them a biased one
// whose downtime iterations' weights underflowed to 0 or to subnormals.
func TestCheckPartialsRefusesImpossibleDownStreams(t *testing.T) {
	p := adaptiveTestParams(Conventional)
	o := Options{Iterations: 4000, MissionTime: 2e5, Seed: 9, Workers: 2}
	biased := o
	biased.Bias = BiasAuto
	hours := func(patch string) func(*Partial) {
		return func(pt *Partial) { patchHours(t, &pt.Down.Hours, patch) }
	}
	// underflowed rebuilds the range's stream with every eighth
	// iteration down 4 hours at weight w and the others quiet.
	underflowed := func(w float64) func(*Partial) {
		return func(pt *Partial) {
			var d Downtime
			for i := pt.Start; i < pt.End; i++ {
				if i%8 == 0 {
					d.add(3, 1, w)
				} else {
					d.add(0, 0, 0.9)
				}
			}
			pt.Down = d
		}
	}
	for _, c := range []struct {
		name string
		o    Options
		set  func(*Partial)
		want string // a substring of the refusal; "" for a valid stream
	}{
		{"as computed", o, func(*Partial) {}, ""},
		{"observations off the range", o, func(pt *Partial) { pt.Down.N++ }, "observations"},
		{"negative down iterations", o, hours(`{"n":-1}`), "outside"},
		{"down iterations beyond the range", o, hours(fmt.Sprintf(`{"n":%d}`, CellSize(4000)+1)), "outside"},
		{"negative hours", o, hours(`{"mean":-5}`), "non-finite"},
		{"NaN human-error hours", o, func(pt *Partial) { pt.Down.DU = math.NaN() }, "non-finite"},
		{"infinite data-loss hours", o, func(pt *Partial) { pt.Down.DL = math.Inf(1) }, "non-finite"},
		{"mean downtime above the mission", o, hours(`{"mean":3e5}`), "above its"},
		{"hours weights above the stream's", o, hours(`{"w":1e4}`), "weighs"},
		{"weights other than 1", o, func(pt *Partial) { pt.Down.W += 0.5 }, "other than 1"},
		{"causes that do not add up", o, func(pt *Partial) { pt.Down.DU *= 1 + 1e-6 }, "splits"},
		{"biased, as computed", biased, func(*Partial) {}, ""},
		{"biased, downtime weights underflowed to 0", biased, underflowed(0), ""},
		{"biased, subnormal downtime weights", biased, underflowed(1e-310), ""},
		{"biased without weights", biased, func(pt *Partial) { pt.Down.W, pt.Down.W2 = 0, 0 }, "no importance weights"},
		{"biased, NaN weights", biased, func(pt *Partial) { pt.Down.W = math.NaN() }, "no importance weights"},
		{"biased, infinite weight squares", biased, func(pt *Partial) { pt.Down.W2 = math.Inf(1) }, "no importance weights"},
		{"biased, ESS above the range", biased,
			func(pt *Partial) { pt.Down.W2 = pt.Down.W * pt.Down.W / float64(2*(pt.End-pt.Start)) }, "effective sample size"},
		{"biased, no bias factor", biased, func(pt *Partial) { pt.Bias = 0 }, "no bias factor"},
	} {
		parts, err := RunRange(p, c.o, 0, c.o.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		if parts[2].Down.Hours.N() == 0 {
			t.Fatalf("%s: the edited cell saw no downtime; the test checks nothing", c.name)
		}
		c.set(&parts[2])
		err = CheckPartials(p, c.o, 0, c.o.Iterations, parts)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: CheckPartials returned %v, want %q", c.name, err, c.want)
		}
	}
}

// TestDowntimeFoldMatchesTwoPass folds random zero-inflated streams,
// split into cells of several widths, and checks every estimate the
// Summary derives from the one downtime stream against a two-pass
// computation over the explicit per-iteration stream: with unit
// weights, lognormal weights, and lognormal weights some of which are
// 0. With unit weights and events >= n-1 the half-width is
// stats.Accumulator's df n-1 half-width over the explicit availability
// stream.
func TestDowntimeFoldMatchesTwoPass(t *testing.T) {
	const n, mission = 5000, 1000.0
	rng := rand.New(rand.NewSource(29))
	approx := func(what string, got, want float64) {
		t.Helper()
		if !(math.Abs(got-want) <= 1e-12*math.Abs(want)) {
			t.Errorf("%s: fold %v, two-pass %v", what, got, want)
		}
	}
	unit := func() float64 { return 1 }
	for _, c := range []struct {
		name     string
		biased   bool
		downFrac float64
		weight   func() float64
	}{
		{"unit weights", false, 0.3, unit},
		{"lognormal weights", true, 0.3, func() float64 { return math.Exp(rng.NormFloat64()) }},
		{"some zero weights", true, 0.3, func() float64 {
			if rng.Float64() < 0.1 {
				return 0
			}
			return math.Exp(rng.NormFloat64())
		}},
		{"unit weights, every iteration down", false, 1, unit},
	} {
		du, dl, w := make([]float64, n), make([]float64, n), make([]float64, n)
		var acc stats.Accumulator
		for i := range w {
			w[i] = c.weight()
			if rng.Float64() < c.downFrac {
				du[i] = 50 * rng.Float64()
				if rng.Float64() < 0.5 {
					dl[i] = 200 * rng.Float64()
				}
			}
			acc.Add(1 - (du[i]+dl[i])/mission)
		}
		var sw, sw2, sd, sdu, sdl, v float64
		for i := range w {
			sw += w[i]
			sw2 += w[i] * w[i]
			sd += w[i] * (du[i] + dl[i])
			sdu += w[i] * du[i]
			sdl += w[i] * dl[i]
		}
		mu := sd / sw
		for i := range w {
			d := du[i] + dl[i] - mu
			v += w[i] * w[i] * d * d
		}
		for _, cell := range []int{1, 7, 64, 1000, n} {
			f := &fold{o: Options{MissionTime: mission, Confidence: 0.99}, biased: c.biased, end: n}
			for lo := 0; lo < n; lo += cell {
				var d Downtime
				for i := lo; i < min(lo+cell, n); i++ {
					d.add(du[i], dl[i], w[i])
				}
				f.down.merge(&d)
			}
			s := f.summary()
			what := func(x string) string { return fmt.Sprintf("%s, %d-iteration cells: %s", c.name, cell, x) }
			approx(what("unavailability"), 1-s.Availability, mu/mission)
			approx(what("standard error"), f.down.stdErr(), math.Sqrt(v*n/(n-1))/sw)
			approx(what("human-error hours"), s.MeanDowntimeDU, sdu/sw)
			approx(what("data-loss hours"), s.MeanDowntimeDL, sdl/sw)
			if !c.biased {
				if f.down.Hours.N() >= n-1 {
					approx(what("half-width"), s.HalfWidth, acc.HalfWidth(0.99))
				}
				continue
			}
			approx(what("ESS"), s.ESS, sw*sw/sw2)
			approx(what("Horvitz-Thompson availability"), s.AvailabilityHT, (sw-sd/mission)/n)
		}
	}
}
