package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveWeighted computes the WeightedAccumulator's sufficient
// statistics in two passes at long-double-free reference precision:
// the mean first, then the centred sums. The online accumulator must
// match to floating-point accuracy for arbitrary streams.
type naiveWeighted struct {
	n                   int64
	w, w2, mean, s1, v2 float64
}

func naiveOf(xs, ws []float64) naiveWeighted {
	var nv naiveWeighted
	nv.n = int64(len(xs))
	for i, w := range ws {
		nv.w += w
		nv.w2 += w * w
		nv.mean += w * xs[i]
	}
	if nv.w == 0 {
		nv.mean = 0
		return nv
	}
	nv.mean /= nv.w
	for i, w := range ws {
		d := xs[i] - nv.mean
		nv.s1 += w * w * d
		nv.v2 += w * w * d * d
	}
	return nv
}

func weightedStream(rng *rand.Rand, n int) (xs, ws []float64) {
	xs = make([]float64, n)
	ws = make([]float64, n)
	for i := range xs {
		// A zero-inflated availability-like stream with lognormal
		// weights — the regime the accumulator exists for.
		if rng.Float64() < 0.7 {
			xs[i] = 1
		} else {
			xs[i] = 1 - rng.Float64()*1e-3
		}
		ws[i] = math.Exp(rng.NormFloat64())
	}
	return xs, ws
}

func TestWeightedAccumulatorMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ws := weightedStream(rng, 5000)
	var a WeightedAccumulator
	for i := range xs {
		a.Add(xs[i], ws[i])
	}
	nv := naiveOf(xs, ws)
	approx := func(name string, got, want, tol float64) {
		t.Helper()
		scale := math.Max(math.Abs(want), 1e-300)
		if math.Abs(got-want)/scale > tol {
			t.Errorf("%s: online %v vs two-pass %v", name, got, want)
		}
	}
	if a.N() != nv.n {
		t.Errorf("n: %d vs %d", a.N(), nv.n)
	}
	approx("sum of weights", a.SumW(), nv.w, 1e-12)
	approx("sum of squared weights", a.SumW2(), nv.w2, 1e-12)
	approx("mean", a.Mean(), nv.mean, 1e-12)
	approx("s1", a.s1, nv.s1, 1e-6)
	approx("v2", a.v2, nv.v2, 1e-9)
	for _, c := range []float64{nv.mean, 0, 1, nv.mean - 1e-4} {
		var dev float64
		for i, w := range ws {
			dev += w * w * (xs[i] - c) * (xs[i] - c)
		}
		approx(fmt.Sprintf("deviations from %v", c), a.Deviations(c), dev, 1e-9)
	}
}

// TestWeightedMergeMatchesSequential pins exactness of the recentred
// merge: any grouping of the stream into sub-accumulators merged in
// stream order agrees with the sequential fold to floating-point
// accuracy, and repeating the identical merge tree is bit-identical
// (the determinism the canonical-cell shard contract builds on —
// bit-identity across partitions comes from a *fixed* merge tree, not
// from merge associativity).
func TestWeightedMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs, ws := weightedStream(rng, 2048)
	var seq WeightedAccumulator
	for i := range xs {
		seq.Add(xs[i], ws[i])
	}
	fold := func(chunks []int) WeightedAccumulator {
		var merged WeightedAccumulator
		at := 0
		for _, c := range chunks {
			var part WeightedAccumulator
			for i := at; i < at+c; i++ {
				part.Add(xs[i], ws[i])
			}
			merged.Merge(&part)
			at += c
		}
		return merged
	}
	for _, chunks := range [][]int{{2048}, {1, 2047}, {64, 64, 1920}, {1000, 1000, 48}, {512, 512, 512, 512}} {
		merged := fold(chunks)
		if again := fold(chunks); again != merged {
			t.Errorf("grouping %v: identical merge tree not bit-identical", chunks)
		}
		if merged.N() != seq.N() {
			t.Fatalf("grouping %v: n %d, want %d", chunks, merged.N(), seq.N())
		}
		approx := func(name string, got, want, tol float64) {
			t.Helper()
			if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-300) {
				t.Errorf("grouping %v: %s merged %v vs sequential %v", chunks, name, got, want)
			}
		}
		approx("w", merged.w, seq.w, 1e-12)
		approx("w2", merged.w2, seq.w2, 1e-12)
		approx("mean", merged.mean, seq.mean, 1e-12)
		approx("s1", merged.s1, seq.s1, 1e-6)
		approx("v2", merged.v2, seq.v2, 1e-9)
	}
}

// TestWeightedUnitWeightsMatchAccumulator: with every weight 1 the
// weighted sums must agree with the plain Accumulator — the unweighted
// path is the special case, not a separate convention: both weight
// sums count the observations, and the deviations from the mean are
// the Accumulator's (n-1)·variance, so the delta-method standard error
// is its standard error.
func TestWeightedUnitWeightsMatchAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a Accumulator
	var w WeightedAccumulator
	for i := 0; i < 4000; i++ {
		x := 1.0
		if rng.Float64() < 0.2 {
			x = rng.Float64()
		}
		a.Add(x)
		w.Add(x, 1)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-13*math.Max(math.Abs(want), 1) {
			t.Errorf("%s: weighted %v vs unweighted %v", name, got, want)
		}
	}
	n := float64(a.N())
	if w.SumW() != n || w.SumW2() != n {
		t.Errorf("unit weights: sums %v and %v, want %v", w.SumW(), w.SumW2(), n)
	}
	approx("mean", w.Mean(), a.Mean())
	approx("deviations", w.Deviations(w.Mean()), a.Variance()*(n-1))
	approx("stderr", math.Sqrt(w.Deviations(w.Mean())*n/(n-1))/w.SumW(), a.StdErr())
}

// TestWeightedESSIdentities pins the weight sums the Kish effective
// sample size (Σw)²/Σw² is computed from.
func TestWeightedESSIdentities(t *testing.T) {
	var a WeightedAccumulator
	if a.SumW() != 0 || a.SumW2() != 0 || a.Mean() != 0 || a.Deviations(0) != 0 {
		t.Error("empty accumulator must answer zeros")
	}
	ess := func() float64 { return a.SumW() * a.SumW() / a.SumW2() }
	// Equal weights: ESS = n regardless of the common factor.
	for i := 0; i < 10; i++ {
		a.Add(float64(i), 0.25)
	}
	if math.Abs(ess()-10) > 1e-12 {
		t.Errorf("equal weights: ESS %v, want 10", ess())
	}
	// One dominating weight: ESS collapses toward 1.
	a.Add(3, 1e9)
	if ess() > 1.001 {
		t.Errorf("dominated stream: ESS %v, want ~1", ess())
	}
	// Zero-weight observations count toward n but not toward the mass.
	before := a
	a.Add(123, 0)
	after := a
	before.n++
	if after != before {
		t.Errorf("zero-weight add changed mass: %+v vs %+v", after, before)
	}
}

func TestWeightedMergeEdgeCases(t *testing.T) {
	var a, empty WeightedAccumulator
	a.Add(1, 2)
	want := a
	a.Merge(&empty)
	if a != want {
		t.Error("merging an empty accumulator changed the state")
	}
	// Zero-mass (all weights underflowed) side only moves n.
	var zeroMass WeightedAccumulator
	zeroMass.Add(9, 0)
	a.Merge(&zeroMass)
	want.n++
	if a != want {
		t.Error("zero-mass merge must only add n")
	}
	// Merging into an empty accumulator copies the other side.
	var b WeightedAccumulator
	b.Merge(&a)
	if b != a {
		t.Error("merge into empty must copy")
	}
}

func TestWeightedJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	xs, ws := weightedStream(rng, 300)
	var a WeightedAccumulator
	for i := range xs {
		a.Add(xs[i], ws[i])
	}
	blob, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	var back WeightedAccumulator
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Errorf("round trip lost state: %+v vs %+v", back, a)
	}
	// Continuing both streams keeps them bit-identical.
	back.Add(0.5, 2)
	a.Add(0.5, 2)
	if back != a {
		t.Errorf("accumulation diverged after round trip: %+v vs %+v", back, a)
	}
}
