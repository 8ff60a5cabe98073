package markov

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"herald/internal/xrand"
)

// twoState builds the classic machine-repair chain: UP --lambda--> DOWN,
// DOWN --mu--> UP, with closed-form steady state mu/(lambda+mu).
func twoState(lambda, mu float64) *CTMC {
	return NewBuilder().
		At("UP", "DOWN", lambda).
		At("DOWN", "UP", mu).
		MustBuild()
}

func TestTwoStateSteadyState(t *testing.T) {
	lambda, mu := 0.001, 0.1
	c := twoState(lambda, mu)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	wantUp := mu / (lambda + mu)
	iUp, _ := c.StateIndex("UP")
	if math.Abs(pi[iUp]-wantUp) > 1e-14 {
		t.Fatalf("pi(UP) = %v, want %v", pi[iUp], wantUp)
	}
}

func TestSteadyStateSumsToOne(t *testing.T) {
	c := twoState(0.3, 0.7)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	s := 0.0
	for _, p := range pi {
		s += p
	}
	if math.Abs(s-1) > 1e-14 {
		t.Fatalf("sum = %v", s)
	}
}

func TestBirthDeathChain(t *testing.T) {
	// M/M/1/3: arrivals rate a, services rate s. Stationary is
	// geometric: pi_k proportional to (a/s)^k.
	a, s := 0.4, 1.0
	b := NewBuilder()
	b.At("0", "1", a).At("1", "2", a).At("2", "3", a)
	b.At("1", "0", s).At("2", "1", s).At("3", "2", s)
	c := b.MustBuild()
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rho := a / s
	norm := 1 + rho + rho*rho + rho*rho*rho
	for k := 0; k < 4; k++ {
		want := math.Pow(rho, float64(k)) / norm
		i, _ := c.StateIndex(string(rune('0' + k)))
		if math.Abs(pi[i]-want) > 1e-12 {
			t.Fatalf("pi[%d] = %v, want %v", k, pi[i], want)
		}
	}
}

func TestIterativeMatchesDirect(t *testing.T) {
	// Random irreducible 12-state chain.
	r := xrand.New(31)
	b := NewBuilder()
	n := 12
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	// Ring guarantees irreducibility; add random extra edges.
	for i := 0; i < n; i++ {
		b.At(names[i], names[(i+1)%n], 0.01+r.Float64())
	}
	for k := 0; k < 40; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i != j {
			b.At(names[i], names[j], r.Float64()*2)
		}
	}
	c := b.MustBuild()
	direct, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	iter, err := c.SteadyStateIterative(1e-13, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(direct[i]-iter[i]) > 1e-8 {
			t.Fatalf("state %d: direct %v vs iterative %v", i, direct[i], iter[i])
		}
	}
}

func TestTransientMatchesClosedForm(t *testing.T) {
	lambda, mu := 0.02, 0.5
	c := twoState(lambda, mu)
	iUp, _ := c.StateIndex("UP")
	pi0 := make([]float64, 2)
	pi0[iUp] = 1
	for _, tm := range []float64{0, 0.5, 1, 5, 20, 200} {
		pi, err := c.Transient(pi0, tm)
		if err != nil {
			t.Fatal(err)
		}
		want := mu/(lambda+mu) + lambda/(lambda+mu)*math.Exp(-(lambda+mu)*tm)
		if math.Abs(pi[iUp]-want) > 1e-9 {
			t.Fatalf("t=%v: P(UP) = %v, want %v", tm, pi[iUp], want)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := twoState(0.1, 0.9)
	iUp, _ := c.StateIndex("UP")
	pi0 := []float64{0, 0}
	pi0[iUp] = 1
	long, err := c.Transient(pi0, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := c.SteadyState()
	for i := range ss {
		if math.Abs(long[i]-ss[i]) > 1e-9 {
			t.Fatalf("transient(1e4) = %v, steady = %v", long, ss)
		}
	}
}

func TestPointAvailability(t *testing.T) {
	c := twoState(0.01, 1)
	av, err := c.PointAvailability("UP", []string{"UP"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if av != 1 {
		t.Fatalf("availability at t=0 = %v", av)
	}
	av, err = c.PointAvailability("UP", []string{"UP"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 1.01
	if math.Abs(av-want) > 1e-9 {
		t.Fatalf("availability = %v, want %v", av, want)
	}
}

func TestTransientRejectsBadHorizon(t *testing.T) {
	c := twoState(0.01, 1)
	for _, tm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if pi, err := c.Transient([]float64{1, 0}, tm); err == nil {
			t.Errorf("Transient at %v = %v with a nil error", tm, pi)
		}
		if av, err := c.PointAvailability("UP", []string{"UP"}, tm); err == nil {
			t.Errorf("PointAvailability at %v = %v with a nil error", tm, av)
		}
	}
}

func TestMeanTimeToAbsorptionSingleStep(t *testing.T) {
	// UP -> DOWN at rate lambda with no return: MTTA = 1/lambda.
	c := NewBuilder().At("UP", "DOWN", 0.004).At("DOWN", "UP", 0).MustBuild()
	mtta, err := c.MeanTimeToAbsorption("UP", "DOWN")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mtta-250) > 1e-9 {
		t.Fatalf("MTTA = %v, want 250", mtta)
	}
}

func TestMTTDLClosedForm(t *testing.T) {
	// RAID-style chain OP -n*l-> EXP -(n-1)*l-> DL with repair EXP
	// -mu-> OP has MTTDL = (mu + (2n-1) l) / (n (n-1) l^2).
	n := 4.0
	l, mu := 1e-4, 0.1
	c := NewBuilder().
		At("OP", "EXP", n*l).
		At("EXP", "DL", (n-1)*l).
		At("EXP", "OP", mu).
		MustBuild()
	mtta, err := c.MeanTimeToAbsorption("OP", "DL")
	if err != nil {
		t.Fatal(err)
	}
	want := (mu + (2*n-1)*l) / (n * (n - 1) * l * l)
	if math.Abs(mtta-want)/want > 1e-10 {
		t.Fatalf("MTTDL = %v, want %v", mtta, want)
	}
}

func TestMTTAFromAbsorbingState(t *testing.T) {
	c := twoState(1, 1)
	mtta, err := c.MeanTimeToAbsorption("DOWN", "DOWN")
	if err != nil {
		t.Fatal(err)
	}
	if mtta != 0 {
		t.Fatalf("MTTA from target = %v", mtta)
	}
}

func TestMTTAUnknownStates(t *testing.T) {
	c := twoState(1, 1)
	if _, err := c.MeanTimeToAbsorption("NOPE", "DOWN"); err == nil {
		t.Fatal("expected error for unknown initial")
	}
	if _, err := c.MeanTimeToAbsorption("UP", "NOPE"); err == nil {
		t.Fatal("expected error for unknown target")
	}
}

func TestExpectedReward(t *testing.T) {
	c := twoState(0.25, 0.75)
	av, err := c.ExpectedReward(func(name string) float64 {
		if name == "UP" {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(av-0.75) > 1e-12 {
		t.Fatalf("reward = %v, want 0.75", av)
	}
}

func TestSteadyProbability(t *testing.T) {
	c := twoState(1, 3)
	p, err := c.SteadyProbability("UP", "DOWN")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Fatalf("total probability = %v", p)
	}
	if _, err := c.SteadyProbability("MISSING"); err == nil {
		t.Fatal("expected unknown state error")
	}
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	c := NewBuilder().
		At("A", "B", 0.5).
		At("A", "B", 0.25).
		At("B", "A", 1).
		MustBuild()
	if got := c.Rate("A", "B"); math.Abs(got-0.75) > 1e-15 {
		t.Fatalf("merged rate = %v", got)
	}
	if len(c.Transitions()) != 2 {
		t.Fatalf("transition count = %d", len(c.Transitions()))
	}
}

func TestBuilderRejectsNegativeRate(t *testing.T) {
	_, err := NewBuilder().At("A", "B", -1).At("B", "A", 1).Build()
	if err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	_, err := NewBuilder().At("A", "A", 0.5).At("A", "B", 1).At("B", "A", 1).Build()
	if err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuilderRejectsNaNRate(t *testing.T) {
	_, err := NewBuilder().At("A", "B", math.NaN()).Build()
	if err == nil {
		t.Fatal("NaN rate accepted")
	}
}

func TestBuilderEmptyModel(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestZeroRateDropped(t *testing.T) {
	c := NewBuilder().At("A", "B", 0).At("A", "B", 1).At("B", "A", 1).MustBuild()
	if len(c.Transitions()) != 2 {
		t.Fatalf("transitions = %v", c.Transitions())
	}
}

func TestIrreducibility(t *testing.T) {
	if !twoState(1, 1).IsIrreducible() {
		t.Fatal("two-state cycle should be irreducible")
	}
	// A -> B with no way back.
	c := NewBuilder().At("A", "B", 1).MustBuild()
	if c.IsIrreducible() {
		t.Fatal("absorbing chain reported irreducible")
	}
}

func TestGeneratorRowsSumToZero(t *testing.T) {
	c := twoState(0.2, 0.9)
	q := c.Generator()
	for i := 0; i < q.Rows; i++ {
		s := 0.0
		for j := 0; j < q.Cols; j++ {
			s += q.At(i, j)
		}
		if math.Abs(s) > 1e-15 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestGeneratorCSRMatchesDense(t *testing.T) {
	c := NewBuilder().
		At("A", "B", 0.1).At("B", "C", 0.2).At("C", "A", 0.3).At("A", "C", 0.05).
		MustBuild()
	d := c.Generator()
	s := c.GeneratorCSR().Dense()
	for i := range d.Data {
		if math.Abs(d.Data[i]-s.Data[i]) > 1e-15 {
			t.Fatal("CSR generator mismatch")
		}
	}
}

func TestUniformizedMatrixIsStochastic(t *testing.T) {
	c := NewBuilder().
		At("A", "B", 2).At("B", "A", 0.5).At("B", "C", 1.5).At("C", "A", 1).
		MustBuild()
	p := c.UniformizedMatrix(0).Dense()
	for i := 0; i < p.Rows; i++ {
		s := 0.0
		for j := 0; j < p.Cols; j++ {
			v := p.At(i, j)
			if v < -1e-15 {
				t.Fatalf("negative probability %v at %d,%d", v, i, j)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestExitAndMaxExitRate(t *testing.T) {
	c := NewBuilder().
		At("A", "B", 2).At("A", "C", 3).At("B", "A", 1).At("C", "A", 1).
		MustBuild()
	iA, _ := c.StateIndex("A")
	if got := c.ExitRate(iA); math.Abs(got-5) > 1e-15 {
		t.Fatalf("exit(A) = %v", got)
	}
	if got := c.MaxExitRate(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("max exit = %v", got)
	}
}

func TestStateAccessors(t *testing.T) {
	c := twoState(1, 2)
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	names := c.StateNames()
	if len(names) != 2 || names[0] != "UP" {
		t.Fatalf("names = %v", names)
	}
	if _, ok := c.StateIndex("UP"); !ok {
		t.Fatal("UP not found")
	}
	if _, ok := c.StateIndex("ZZZ"); ok {
		t.Fatal("phantom state found")
	}
	if c.Rate("UP", "DOWN") != 1 || c.Rate("X", "Y") != 0 {
		t.Fatal("Rate lookup wrong")
	}
}

func TestDOTOutput(t *testing.T) {
	dot := twoState(0.5, 1).DOT("repair")
	for _, want := range []string{"digraph", "UP", "DOWN", "->", "0.5"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestQuickSteadyStateIsStochastic(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + int(seed%6)
		b := NewBuilder()
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		for i := 0; i < n; i++ {
			b.At(names[i], names[(i+1)%n], 0.01+r.Float64())
		}
		for k := 0; k < n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i != j {
				b.At(names[i], names[j], r.Float64())
			}
		}
		c := b.MustBuild()
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBalanceEquationsHold(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + int(seed%5)
		b := NewBuilder()
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		for i := 0; i < n; i++ {
			b.At(names[i], names[(i+1)%n], 0.05+r.Float64())
		}
		c := b.MustBuild()
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		// pi Q must be (numerically) zero.
		res := c.Generator().VecMul(pi)
		for _, v := range res {
			if math.Abs(v) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickTransientStochastic(t *testing.T) {
	f := func(seed uint64, tRaw uint8) bool {
		r := xrand.New(seed)
		c := twoState(0.01+r.Float64(), 0.01+r.Float64())
		pi0 := []float64{1, 0}
		pi, err := c.Transient(pi0, float64(tRaw))
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
