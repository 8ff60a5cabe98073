package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"herald/internal/dist"
)

// Statistical validation of the failure-biasing importance sampler:
// the biased kernels must estimate the same availability as the
// unbiased ones (CI overlap at 1e5 iterations per policy) and as the
// internal/markov closed forms, the weighted machinery must keep the
// partition-independent merge contract bit for bit, and ESS must track
// information content rather than raw iteration count.

func TestParseBias(t *testing.T) {
	good := map[string]float64{
		"":     0,
		"auto": BiasAuto,
		"1":    1,
		"2.5":  2.5,
		"1e4":  1e4,
	}
	for tok, want := range good {
		got, err := ParseBias(tok)
		if err != nil || got != want {
			t.Errorf("ParseBias(%q) = %v, %v; want %v", tok, got, err, want)
		}
	}
	for _, tok := range []string{"0", "0.5", "-1", "-4", "nan", "inf", "-inf", "x", "auto ", "1,5"} {
		if _, err := ParseBias(tok); err == nil {
			t.Errorf("ParseBias(%q) accepted", tok)
		} else if !strings.Contains(err.Error(), "bias") {
			t.Errorf("ParseBias(%q): unhelpful error %v", tok, err)
		}
	}
}

func TestBiasOptionValidation(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	base := Options{Iterations: 100, MissionTime: 1e5}
	for _, b := range []float64{0, BiasAuto, 1, 2.5, 1e6} {
		o := base
		o.Bias = b
		if err := o.Validate(); err != nil {
			t.Errorf("bias %v rejected: %v", b, err)
		}
	}
	for _, b := range []float64{0.5, -0.25, -2, math.Inf(1), math.NaN()} {
		o := base
		o.Bias = b
		if err := o.Validate(); err == nil {
			t.Errorf("bias %v accepted", b)
		}
		if _, err := Run(p, o); err == nil {
			t.Errorf("Run accepted bias %v", b)
		}
	}
	// Biased() semantics: auto and factors above 1 bias; 0 and an
	// explicit 1 are off.
	for b, want := range map[float64]bool{0: false, 1: false, BiasAuto: true, 1.5: true, 100: true} {
		o := base
		o.Bias = b
		if o.Biased() != want {
			t.Errorf("Biased() with bias %v = %v, want %v", b, o.Biased(), want)
		}
	}
}

// TestRaceWeights checks the change-of-measure rule where newRace
// applies it, for every race the three memoryless kernels build: b = 1
// leaves the race unbiased (zero weights, winner normalizer G+F), the
// likelihood ratio has mean 1 under the proposal's winner draw, and
// the cut points partition the draw in order.
func TestRaceWeights(t *testing.T) {
	for _, n := range []int{4, 5, 8} {
		for _, lambda := range []float64{1e-6, 1e-4, 1e-2} {
			for _, hep := range []float64{0, 0.01} {
				for _, crash := range []float64{0, 0.01, 2} {
					p := PaperDefaults(n, lambda, hep)
					p.CrashRate = crash
					p.Policy = AutoFailover // resolves the spare rates too
					m, ok := memorylessRates(&p)
					if !ok {
						t.Fatalf("n=%d lambda=%g hep=%g: rates not memoryless", n, lambda, hep)
					}
					for _, b := range []float64{1, 1.5, 40, 1e4} {
						conv := makeConvMemK(&p, m, b, false)
						fo := makeFoMemK(&p, m, b, false)
						dp := makeDpMemK(&p, m, b, false)
						races := map[string]race{
							"conv.exp": conv.exp, "conv.du": conv.du,
							"fo.exp1": fo.exp1, "fo.opns": fo.opns, "fo.expns1": fo.expns1,
							"fo.expns2": fo.expns2, "fo.du1": fo.du1, "fo.du2": fo.du2,
							"dp.e1": dp.e1, "dp.e2": dp.e2, "dp.du": dp.du,
						}
						for name, r := range races {
							at := func(format string, args ...any) {
								t.Helper()
								t.Errorf("%s (n=%d lambda=%g hep=%g crash=%g b=%g): "+format,
									append([]any{name, n, lambda, hep, crash, b}, args...)...)
							}
							if !(r.cutU <= r.cutC && r.cutC <= r.tot) {
								at("cuts %g, %g out of order below tot %g", r.cutU, r.cutC, r.tot)
							}
							if b == 1 {
								if r.lnQuiet != 0 || r.lnFail != 0 {
									at("unbiased weights %g, %g", r.lnQuiet, r.lnFail)
								}
								if r.tot != r.cutC+r.cutF || r.inv != inv(r.tot) {
									at("unbiased tot %g is not G+F (hold 1/%g)", r.tot, 1/r.inv)
								}
							}
							if r.tot > 0 {
								mean := r.cutC/r.tot*math.Exp(r.lnQuiet) + r.cutF/r.tot*math.Exp(r.lnFail)
								if math.Abs(mean-1) > 1e-12 {
									at("likelihood ratio has mean %.17g under the proposal", mean)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestResolveBiasAuto(t *testing.T) {
	// Paper configuration without human error: f = 3e-6, g = 0.1 =>
	// b_bal ~ 33333; cycles = 4, kappa = 2 => b_var ~ 16668 wins.
	p := PaperDefaults(4, 1e-6, 0)
	o := Options{Iterations: 100, MissionTime: 1e6, Bias: BiasAuto}
	b, err := resolveBias(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !(b > 1e4 && b < 1e5) {
		t.Errorf("auto bias %v outside the expected decade [1e4, 1e5)", b)
	}

	// With human error in play the drift budget tightens (kappa = 1/4
	// => b_var ~ 2084): the HEP downtime stream rides quiet weights, so
	// auto trades event yield for weight stability.
	hep := PaperDefaults(4, 1e-6, 0.001)
	bh, err := resolveBias(hep, o)
	if err != nil {
		t.Fatal(err)
	}
	if !(bh > 1e3 && bh < 1e4) {
		t.Errorf("auto bias %v with hep > 0 outside the expected decade [1e3, 1e4)", bh)
	}
	if !(bh < b/4) {
		t.Errorf("auto bias with hep > 0 (%v) not materially tighter than without (%v)", bh, b)
	}

	// Explicit factors resolve to themselves; unbiased options to 1.
	o.Bias = 7.5
	if got, _ := resolveBias(p, o); got != 7.5 {
		t.Errorf("explicit bias resolved to %v", got)
	}
	o.Bias = 0
	if got, _ := resolveBias(p, o); got != 1 {
		t.Errorf("unbiased options resolved to %v", got)
	}

	// The balance cap binds when missions hold few benign cycles.
	dense := PaperDefaults(4, 1e-3, 0.01)
	o = Options{Iterations: 100, MissionTime: 1e5, Bias: BiasAuto}
	b, err = resolveBias(dense, o)
	if err != nil {
		t.Fatal(err)
	}
	if !(b >= 1) {
		t.Errorf("auto bias %v below 1", b)
	}

	// Auto on non-exponential laws errors instead of guessing.
	weib := PaperDefaults(4, 1e-4, 0.01)
	weib.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
	if _, err := resolveBias(weib, o); err == nil {
		t.Error("auto bias resolved on a Weibull TTF")
	}
}

func TestBiasRequiresMemorylessKernel(t *testing.T) {
	p := PaperDefaults(4, 1e-4, 0.01)
	p.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
	_, err := Run(p, Options{Iterations: 100, MissionTime: 1e5, Bias: 4})
	if err == nil {
		t.Fatal("Run accepted a biased run on a generic-kernel configuration")
	}
	if !strings.Contains(err.Error(), "memoryless") {
		t.Errorf("unhelpful error: %v", err)
	}
	// Forcing the generic kernel on an exponential configuration is
	// rejected the same way.
	exp := PaperDefaults(4, 1e-4, 0.01)
	if _, err := Run(exp, Options{Iterations: 100, MissionTime: 1e5, Bias: 4, Kernel: KernelGeneric}); err == nil {
		t.Error("Run accepted bias under a forced generic kernel")
	}
}

// TestBiasFactorOneIsBitIdenticalToUnbiased pins the change of
// measure's degenerate point: an auto request that resolves to — or an
// engine fed — factor 1 walks the identical path and weights every
// iteration 1, so the weighted estimates coincide with the unweighted
// ones exactly.
func TestBiasFactorOneIsBitIdenticalToUnbiased(t *testing.T) {
	for _, c := range equivCases() {
		o := Options{Iterations: 3000, MissionTime: 2e5, Seed: 77}
		un, err := Run(c.p, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// An explicit factor 1 is fully off: same Summary, byte for byte.
		o.Bias = 1
		off, err := Run(c.p, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if summaryJSON(t, off) != summaryJSON(t, un) {
			t.Errorf("%s: explicit bias 1 changed the Summary", c.name)
		}
	}
}

// TestBiasedMatchesUnbiasedCIOverlap is the seeded statistical
// acceptance gate of the sampler: at 1e5 iterations per policy, the
// biased (auto factor) and unbiased estimates of availability must
// have overlapping confidence intervals, and the weighted downtime
// means must agree to a few percent.
func TestBiasedMatchesUnbiasedCIOverlap(t *testing.T) {
	const iters = 100000
	for _, c := range equivCases() {
		o := Options{Iterations: iters, MissionTime: 2e5, Confidence: 0.99}
		ou := o
		ou.Seed = 2401
		ob := o
		ob.Seed, ob.Bias = 2402, BiasAuto
		un, err := Run(c.p, ou)
		if err != nil {
			t.Fatalf("%s unbiased: %v", c.name, err)
		}
		bi, err := Run(c.p, ob)
		if err != nil {
			t.Fatalf("%s biased: %v", c.name, err)
		}
		if bi.Bias <= 0 {
			t.Fatalf("%s: biased Summary reports factor %v", c.name, bi.Bias)
		}
		if d := math.Abs(un.Availability - bi.Availability); d > un.HalfWidth+bi.HalfWidth {
			t.Errorf("%s: availability CIs do not overlap: unbiased %v±%v vs biased %v±%v (factor %v)",
				c.name, un.Availability, un.HalfWidth, bi.Availability, bi.HalfWidth, bi.Bias)
		}
		relCheck := func(metric string, a, b, tol float64) {
			if a == 0 && b == 0 {
				return
			}
			if d := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); d > tol {
				t.Errorf("%s: %s differs %.1f%% (unbiased %v vs biased %v, tol %.0f%%)",
					c.name, metric, 100*d, a, b, 100*tol)
			}
		}
		relCheck("mean DU downtime", un.MeanDowntimeDU, bi.MeanDowntimeDU, 0.15)
		relCheck("mean DL downtime", un.MeanDowntimeDL, bi.MeanDowntimeDL, 0.15)
		// The Horvitz–Thompson diagnostic must sit near the
		// self-normalized estimate on a healthy run.
		if d := math.Abs(bi.AvailabilityHT - bi.Availability); d > 0.01 {
			t.Errorf("%s: HT estimate %v far from self-normalized %v", c.name, bi.AvailabilityHT, bi.Availability)
		}
	}
}

// TestBiasedMatchesCTMC closes the validation triangle: the biased
// kernels must agree with the closed-form CTMC solutions for every
// policy, exactly as the unbiased kernels already do.
func TestBiasedMatchesCTMC(t *testing.T) {
	run := func(p ArrayParams, bias float64) Summary {
		t.Helper()
		s, err := Run(p, Options{
			Iterations: 20000, MissionTime: 2e5, Seed: 998877, Workers: 4,
			Confidence: 0.99, Bias: bias,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cp := PaperDefaults(4, 1e-4, 0.01)
	assertWithinCI(t, "biased conventional", run(cp, BiasAuto), cp)

	fp := PaperDefaults(4, 1e-4, 0.02)
	fp.Policy = AutoFailover
	assertWithinCI(t, "biased failover", run(fp, BiasAuto), fp)

	dp := PaperDefaults(6, 3e-4, 0.02)
	dp.Policy = DualParity
	// A fixed factor exercises the explicit path too.
	assertWithinCI(t, "biased dual parity", run(dp, 4), dp)
}

// TestBiasedESSTracksEvents pins what ESS measures: on a rare-event
// configuration it grows proportionally with the simulated iterations
// (the information), stays below the raw count, and the weighted
// Summary reports it.
func TestBiasedESSTracksEvents(t *testing.T) {
	p := PaperDefaults(4, 1e-5, 0)
	run := func(iters int) Summary {
		t.Helper()
		s, err := Run(p, Options{Iterations: iters, MissionTime: 1e6, Seed: 5150, Bias: BiasAuto})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	small := run(2000)
	big := run(8000)
	if !(small.ESS > 0) || !(big.ESS > 0) {
		t.Fatalf("ESS missing from biased summaries: %v, %v", small.ESS, big.ESS)
	}
	if small.ESS >= float64(small.Iterations) || big.ESS >= float64(big.Iterations) {
		t.Errorf("ESS at or above raw n: %v/%d, %v/%d",
			small.ESS, small.Iterations, big.ESS, big.Iterations)
	}
	if big.ESS < 2*small.ESS {
		t.Errorf("ESS does not grow with events: %v at 2000 iters vs %v at 8000", small.ESS, big.ESS)
	}
}

// TestBiasedSummarizePartitionInvariance extends the arrival-order
// merging property to weighted partials: any permutation and any
// worker count of a biased run merges to a byte-identical weighted
// Summary.
func TestBiasedSummarizePartitionInvariance(t *testing.T) {
	p := adaptiveTestParams(DualParity)
	o := Options{Iterations: 5000, MissionTime: 2e5, Seed: 31, Workers: 2, HistogramBins: 16, Bias: 6}
	parts, err := RunRange(p, o, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Summarize(o, parts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Bias != 6 || !(base.ESS > 0) {
		t.Fatalf("biased summary lacks weighting: factor %v, ESS %v", base.Bias, base.ESS)
	}
	want := summaryJSON(t, base)

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		perm := append([]Partial(nil), parts...)
		switch trial {
		case 0: // exact reversal
			for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
				perm[i], perm[j] = perm[j], perm[i]
			}
		default:
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		got, err := Summarize(o, perm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g := summaryJSON(t, got); g != want {
			t.Fatalf("trial %d: permuted weighted merge diverged\n got %s\nwant %s", trial, g, want)
		}
	}

	for _, workers := range []int{1, 2, 7} {
		ow := o
		ow.Workers = workers
		s, err := Run(p, ow)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if g := summaryJSON(t, s); g != want {
			t.Fatalf("workers=%d: schedule changed the weighted Summary\n got %s\nwant %s", workers, g, want)
		}
	}
}

// TestBiasedSummarizeRejectsMixedPartials: weighted and unweighted
// partials, or partials sampled under different factors, must never
// silently fold together.
func TestBiasedSummarizeRejectsMixedPartials(t *testing.T) {
	p := adaptiveTestParams(Conventional)
	o := Options{Iterations: 256, MissionTime: 1e5, Seed: 9}
	ob := o
	ob.Bias = 4
	un, err := RunRange(p, o, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := RunRange(p, ob, 0, o.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Summarize(ob, un); err == nil {
		t.Error("biased Summarize accepted unweighted partials")
	}
	if _, err := Summarize(o, bi); err == nil {
		t.Error("unbiased Summarize accepted weighted partials")
	}
	mixed := append(append([]Partial(nil), bi[:1]...), bi[1:]...)
	mixed[1].Bias = 8
	if _, err := Summarize(ob, mixed); err == nil {
		t.Error("Summarize accepted partials sampled under different factors")
	}
}

// TestBiasedReplayDeterminism pins replay and schedule independence
// under biasing for every policy: identical options give byte-identical
// Summaries across repeated runs and worker counts.
func TestBiasedReplayDeterminism(t *testing.T) {
	for _, pol := range policies {
		p := paramsFor(pol)
		o := Options{Iterations: 2000, MissionTime: 1e6, Seed: 4242, Workers: 1, Bias: BiasAuto}
		first, err := Run(p, o)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		want := summaryJSON(t, first)
		again, err := Run(p, o)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if summaryJSON(t, again) != want {
			t.Errorf("%v: biased replay diverged", pol)
		}
		for _, workers := range []int{2, 5} {
			ow := o
			ow.Workers = workers
			s, err := Run(p, ow)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", pol, workers, err)
			}
			if summaryJSON(t, s) != want {
				t.Errorf("%v: workers=%d changed the biased Summary", pol, workers)
			}
		}
	}
}

// TestBiasedHotLoopZeroAllocs extends the allocation pin: the weighted
// walkers must stay allocation-free per iteration for every policy.
func TestBiasedHotLoopZeroAllocs(t *testing.T) {
	for _, pol := range policies {
		p := paramsFor(pol)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		sc := newScratch(&p, Options{MissionTime: 1e5, Kernel: KernelMemoryless, Bias: 8})
		it := 0
		allocs := testing.AllocsPerRun(300, func() {
			_ = sc.iterate(123, it)
			it++
		})
		if allocs != 0 {
			t.Errorf("%v: biased hot loop allocates %.1f per iteration, want 0", pol, allocs)
		}
	}
}

// TestBiasedAdaptiveFewerIterations is the acceleration acceptance
// test at a paper configuration: adaptively targeting a 1e-9 CI
// half-width, the biased run must converge at least 10x below the
// iteration count the unbiased stream needs (the unbiased run
// demonstrably fails to converge within 10x the biased stopping
// point).
func TestBiasedAdaptiveFewerIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale adaptive comparison")
	}
	p := PaperDefaults(4, 1e-6, 0)
	const target = 1e-9
	ob := Options{Iterations: 256, MaxIters: 200000, TargetHalfWidth: target,
		MissionTime: 1e6, Seed: 90125, Workers: 4, Bias: BiasAuto}
	bi, err := Run(p, ob)
	if err != nil {
		t.Fatal(err)
	}
	if !bi.Converged {
		t.Fatalf("biased adaptive run failed to converge within %d iterations (half-width %v)",
			ob.MaxIters, bi.HalfWidth)
	}
	if bi.HalfWidth > target {
		t.Errorf("biased run stopped above target: %v > %v", bi.HalfWidth, target)
	}

	// The unbiased stream, given 10x the biased stopping point, must
	// still be short of the target — that is the >= 10x claim.
	ou := Options{Iterations: 256, MaxIters: 10 * bi.Iterations, TargetHalfWidth: target,
		MissionTime: 1e6, Seed: 90126, Workers: 4}
	un, err := Run(p, ou)
	if err != nil {
		t.Fatal(err)
	}
	if un.Converged {
		t.Errorf("unbiased run converged within 10x the biased iteration count (%d vs %d): speedup below 10x",
			un.Iterations, bi.Iterations)
	}
	t.Logf("biased: %d iterations to half-width %.3g (factor %.4g, ESS %.0f); unbiased at %d iterations: half-width %.3g",
		bi.Iterations, bi.HalfWidth, bi.Bias, bi.ESS, un.Iterations, un.HalfWidth)
}
