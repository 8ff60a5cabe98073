// Package markov implements continuous-time Markov chains (CTMCs) and
// the analyses the availability study needs: steady-state solution of
// the balance equations, absorbing-chain metrics (mean time to failure
// / data loss), and one transient solve that gives both the state
// probabilities e^{Qt} and the accumulated reward ∫₀ᵗ e^{Qs}·r ds: a
// uniformized Poisson series over a short base step, then repeated
// doubling, so a mission of 1e6 hours costs about twenty small matrix
// products.
//
// The paper's RAID availability models (Figs. 2 and 3) are irreducible
// CTMCs whose steady-state probabilities, summed over "up" states,
// give the array availability. Models are assembled with Builder,
// which keeps states named so that model code reads like the paper's
// state diagrams.
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"herald/internal/linalg"
)

// ErrNotConverged is returned by iterative solvers that exhaust their
// iteration budget.
var ErrNotConverged = errors.New("markov: iteration did not converge")

// Transition is one directed rate between two states.
type Transition struct {
	From, To int
	Rate     float64
}

// CTMC is an immutable continuous-time Markov chain over named states.
// Construct with Builder.
type CTMC struct {
	names []string
	index map[string]int
	trans []Transition
}

// Builder assembles a CTMC from named states and rate transitions.
type Builder struct {
	names []string
	index map[string]int
	trans []Transition
	errs  []string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// State declares a state (idempotent) and returns its index.
func (b *Builder) State(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	return i
}

// At adds a transition from -> to with the given rate (per hour).
// Declaring the endpoints is implicit. Zero-rate transitions are
// dropped; negative rates and self-loops are recorded as build errors
// (a CTMC self-loop has no probabilistic meaning).
func (b *Builder) At(from, to string, rate float64) *Builder {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		b.errs = append(b.errs, fmt.Sprintf("invalid rate %v on %s->%s", rate, from, to))
		return b
	}
	if from == to {
		if rate != 0 {
			b.errs = append(b.errs, fmt.Sprintf("self-loop %s->%s (rate %v) is meaningless in a CTMC", from, to, rate))
		}
		return b
	}
	f, t := b.State(from), b.State(to)
	if rate == 0 {
		return b
	}
	b.trans = append(b.trans, Transition{From: f, To: t, Rate: rate})
	return b
}

// Build validates and returns the chain. Parallel transitions between
// the same pair of states are merged by summing their rates.
func (b *Builder) Build() (*CTMC, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("markov: invalid model: %s", strings.Join(b.errs, "; "))
	}
	if len(b.names) == 0 {
		return nil, errors.New("markov: model has no states")
	}
	merged := make(map[[2]int]float64)
	for _, tr := range b.trans {
		merged[[2]int{tr.From, tr.To}] += tr.Rate
	}
	keys := make([][2]int, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	trans := make([]Transition, 0, len(keys))
	for _, k := range keys {
		trans = append(trans, Transition{From: k[0], To: k[1], Rate: merged[k]})
	}
	c := &CTMC{
		names: append([]string(nil), b.names...),
		index: make(map[string]int, len(b.names)),
		trans: trans,
	}
	for i, n := range c.names {
		c.index[n] = i
	}
	return c, nil
}

// MustBuild is Build that panics on error; for statically known models.
func (b *Builder) MustBuild() *CTMC {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of states.
func (c *CTMC) N() int { return len(c.names) }

// StateName returns the name of state i.
func (c *CTMC) StateName(i int) string { return c.names[i] }

// StateNames returns a copy of all state names in index order.
func (c *CTMC) StateNames() []string { return append([]string(nil), c.names...) }

// StateIndex returns the index of a named state.
func (c *CTMC) StateIndex(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// Transitions returns a copy of the merged transition list.
func (c *CTMC) Transitions() []Transition { return append([]Transition(nil), c.trans...) }

// Rate returns the transition rate from -> to (0 if absent).
func (c *CTMC) Rate(from, to string) float64 {
	f, ok1 := c.index[from]
	t, ok2 := c.index[to]
	if !ok1 || !ok2 {
		return 0
	}
	for _, tr := range c.trans {
		if tr.From == f && tr.To == t {
			return tr.Rate
		}
	}
	return 0
}

// ExitRate returns the total outgoing rate of state i.
func (c *CTMC) ExitRate(i int) float64 {
	s := 0.0
	for _, tr := range c.trans {
		if tr.From == i {
			s += tr.Rate
		}
	}
	return s
}

// MaxExitRate returns the largest total exit rate over all states (the
// uniformization constant must exceed it).
func (c *CTMC) MaxExitRate() float64 {
	exit := make([]float64, c.N())
	for _, tr := range c.trans {
		exit[tr.From] += tr.Rate
	}
	max := 0.0
	for _, e := range exit {
		if e > max {
			max = e
		}
	}
	return max
}

// Generator returns the dense infinitesimal generator Q, with
// Q[i][j] = rate(i->j) for i != j and Q[i][i] = -sum_j rate(i->j).
func (c *CTMC) Generator() *linalg.Dense {
	n := c.N()
	q := linalg.NewDense(n, n)
	for _, tr := range c.trans {
		q.Add(tr.From, tr.To, tr.Rate)
		q.Add(tr.From, tr.From, -tr.Rate)
	}
	return q
}

// GeneratorCSR returns the generator in sparse CSR form.
func (c *CTMC) GeneratorCSR() *linalg.CSR {
	items := make([]linalg.Coord, 0, 2*len(c.trans))
	for _, tr := range c.trans {
		items = append(items,
			linalg.Coord{Row: tr.From, Col: tr.To, Val: tr.Rate},
			linalg.Coord{Row: tr.From, Col: tr.From, Val: -tr.Rate})
	}
	return linalg.NewCSR(c.N(), c.N(), items)
}

// SteadyState solves pi Q = 0, sum(pi) = 1 directly: the transposed
// balance equations with one row replaced by the normalization
// constraint, followed by iterative refinement. It requires the chain
// to have a unique stationary distribution (irreducible chains do).
func (c *CTMC) SteadyState() ([]float64, error) {
	n := c.N()
	if n == 1 {
		return []float64{1}, nil
	}
	// A = Q^T with the last row replaced by ones; b = e_{n-1}.
	a := c.Generator().Transpose()
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := linalg.SolveRefined(a, b, 4)
	if err != nil {
		return nil, fmt.Errorf("markov: steady state solve: %w", err)
	}
	// Clamp tiny negative round-off and renormalize.
	for i, v := range pi {
		if v < 0 {
			if v < -1e-9 {
				return nil, fmt.Errorf("markov: steady state has negative probability %v in state %s", v, c.names[i])
			}
			pi[i] = 0
		}
	}
	linalg.Normalize1(pi)
	return pi, nil
}

// SteadyStateIterative computes the stationary distribution through the
// uniformized DTMC and power iteration; a cross-check for the direct
// solver and the scalable path for large chains.
func (c *CTMC) SteadyStateIterative(tol float64, maxIter int) ([]float64, error) {
	p := c.UniformizedMatrix(0)
	pi0 := make([]float64, c.N())
	for i := range pi0 {
		pi0[i] = 1
	}
	pi, _, ok := linalg.PowerIteration(p, pi0, tol, maxIter)
	if !ok {
		return pi, ErrNotConverged
	}
	return pi, nil
}

// UniformizedMatrix returns the uniformized transition matrix
// P = I + Q/lambda. When lambda <= 0, 1.05 * MaxExitRate is used
// (the 5% slack keeps diagonal entries strictly positive, making the
// DTMC aperiodic).
func (c *CTMC) UniformizedMatrix(lambda float64) *linalg.CSR {
	if lambda <= 0 {
		lambda = 1.05 * c.MaxExitRate()
		if lambda == 0 {
			lambda = 1 // chain with no transitions: P = I
		}
	}
	n := c.N()
	exit := make([]float64, n)
	items := make([]linalg.Coord, 0, len(c.trans)+n)
	for _, tr := range c.trans {
		items = append(items, linalg.Coord{Row: tr.From, Col: tr.To, Val: tr.Rate / lambda})
		exit[tr.From] += tr.Rate
	}
	for i := 0; i < n; i++ {
		items = append(items, linalg.Coord{Row: i, Col: i, Val: 1 - exit[i]/lambda})
	}
	return linalg.NewCSR(n, n, items)
}

// seriesTerms is the length of the base step's Poisson series. At
// Λh ≤ 1 the first weight left out is below 1/30! ≈ 4e-33.
const seriesTerms = 30

// expm is the one transient solve: it returns P(t) = e^{Qt} and the
// reward integral V(t) = ∫₀ᵗ e^{Qs}·r ds, whose entry i is the
// expected reward accumulated over [0, t] from state i. With
// U = UniformizedMatrix(Λ), the base step h = t/2^s (Λh ≤ 1) sums
//
//	P(h) = Σ_k pois_k(Λh)·U^k,   V(h) = (1/Λ)·Σ_k P(N_{Λh} > k)·U^k·r,
//
// the second by ∫₀ʰ pois_k(Λs) ds = P(N_{Λh} > k)/Λ, and s doublings
// follow: P(2h) = P(h)·P(h) and V(2h) = V(h) + P(h)·V(h). Every term
// is non-negative, so nothing cancels and a small down-state integral
// keeps its digits; the cost grows with log t.
func (c *CTMC) expm(t float64, r []float64) (*linalg.Dense, []float64, error) {
	if !(t >= 0) || math.IsInf(t, 1) {
		return nil, nil, fmt.Errorf("markov: invalid horizon %v", t)
	}
	lambda := 1.05 * c.MaxExitRate()
	if lambda == 0 {
		lambda = 1 // no transitions: U = I
	}
	h, s := t, 0
	for lambda*h > 1 {
		h /= 2
		s++
	}
	var w, tail [seriesTerms + 1]float64 // pois_k(Λh) and P(N_{Λh} > k)
	w[0] = math.Exp(-lambda * h)
	for k := 1; k <= seriesTerms; k++ {
		w[k] = w[k-1] * lambda * h / float64(k)
	}
	for k := seriesTerms - 1; k >= 0; k-- {
		tail[k] = tail[k+1] + w[k+1]
	}
	n := c.N()
	u := c.UniformizedMatrix(lambda).Dense()
	p, v, pow := linalg.NewDense(n, n), make([]float64, n), linalg.Identity(n)
	for k := 0; k < seriesTerms; k++ {
		for i, x := range pow.Data {
			p.Data[i] += w[k] * x
		}
		for i, x := range pow.MulVec(r) {
			v[i] += tail[k] / lambda * x
		}
		pow = pow.Mul(u)
	}
	for ; s > 0; s-- {
		for i, x := range p.MulVec(v) {
			v[i] += x
		}
		p = p.Mul(p)
	}
	return p, v, nil
}

// TransientReward returns, from one doubling solve (expm), the state
// probability vector pi0·e^{Qt} at time t (hours) and the reward
// pi0·∫₀ᵗ e^{Qs}·r ds accumulated over [0, t] from pi0. A negative,
// NaN or infinite horizon is an error.
func (c *CTMC) TransientReward(pi0 []float64, t float64, r []float64) ([]float64, float64, error) {
	n := c.N()
	if len(pi0) != n || len(r) != n {
		return nil, 0, fmt.Errorf("markov: TransientReward needs vectors of length %d (got %d, %d)", n, len(pi0), len(r))
	}
	p, v, err := c.expm(t, r)
	if err != nil {
		return nil, 0, err
	}
	return p.VecMul(pi0), linalg.Dot(pi0, v), nil
}

// Transient returns the state probability vector at time t (hours)
// starting from pi0: TransientReward's first output. A negative, NaN or
// infinite horizon is an error.
func (c *CTMC) Transient(pi0 []float64, t float64) ([]float64, error) {
	n := c.N()
	if len(pi0) != n {
		panic(fmt.Sprintf("markov: initial vector has %d entries, want %d", len(pi0), n))
	}
	pi, _, err := c.TransientReward(pi0, t, make([]float64, n))
	return pi, err
}

// PointAvailability returns the probability of being in any of the
// given states at time t, starting from the named initial state.
func (c *CTMC) PointAvailability(initial string, states []string, t float64) (float64, error) {
	i0, ok := c.index[initial]
	if !ok {
		return 0, fmt.Errorf("markov: unknown initial state %q", initial)
	}
	pi0 := make([]float64, c.N())
	pi0[i0] = 1
	pi, err := c.Transient(pi0, t)
	if err != nil {
		return 0, err
	}
	return c.sumOver(pi, states)
}

// SteadyProbability returns the steady-state probability mass over the
// given named states.
func (c *CTMC) SteadyProbability(states ...string) (float64, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	return c.sumOver(pi, states)
}

func (c *CTMC) sumOver(pi []float64, states []string) (float64, error) {
	s := 0.0
	for _, name := range states {
		i, ok := c.index[name]
		if !ok {
			return 0, fmt.Errorf("markov: unknown state %q", name)
		}
		s += pi[i]
	}
	return s, nil
}

// ExpectedReward returns sum_i pi_i * reward(state i) at steady state;
// with reward = 1 on up states it yields availability, with state
// occupancy costs it yields expected downtime cost, etc.
func (c *CTMC) ExpectedReward(reward func(name string) float64) (float64, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	s := 0.0
	for i, p := range pi {
		s += p * reward(c.names[i])
	}
	return s, nil
}

// MeanTimeToAbsorption treats the named target states as absorbing and
// returns the expected time (hours) to first reach any of them from
// the initial state: the MTTF/MTTDL-style metric. It solves
// (-Q_TT) tau = 1 restricted to transient states.
func (c *CTMC) MeanTimeToAbsorption(initial string, targets ...string) (float64, error) {
	i0, ok := c.index[initial]
	if !ok {
		return 0, fmt.Errorf("markov: unknown initial state %q", initial)
	}
	absorbing := make(map[int]bool, len(targets))
	for _, name := range targets {
		i, ok := c.index[name]
		if !ok {
			return 0, fmt.Errorf("markov: unknown target state %q", name)
		}
		absorbing[i] = true
	}
	if absorbing[i0] {
		return 0, nil
	}
	// Index map for transient states.
	tIdx := make(map[int]int)
	var tStates []int
	for i := 0; i < c.N(); i++ {
		if !absorbing[i] {
			tIdx[i] = len(tStates)
			tStates = append(tStates, i)
		}
	}
	m := len(tStates)
	a := linalg.NewDense(m, m)
	for _, tr := range c.trans {
		fi, ok := tIdx[tr.From]
		if !ok {
			continue
		}
		a.Add(fi, fi, tr.Rate) // diagonal accumulates total exit rate
		if ti, ok := tIdx[tr.To]; ok {
			a.Add(fi, ti, -tr.Rate)
		}
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	tau, err := linalg.SolveRefined(a, ones, 4)
	if err != nil {
		return 0, fmt.Errorf("markov: MTTA solve (targets unreachable from some state?): %w", err)
	}
	v := tau[tIdx[i0]]
	if v < 0 {
		return 0, fmt.Errorf("markov: negative MTTA %v; chain structure invalid", v)
	}
	return v, nil
}

// IsIrreducible reports whether every state can reach every other
// state (the requirement for a unique steady-state distribution).
func (c *CTMC) IsIrreducible() bool {
	n := c.N()
	fwd := make([][]int, n)
	rev := make([][]int, n)
	for _, tr := range c.trans {
		fwd[tr.From] = append(fwd[tr.From], tr.To)
		rev[tr.To] = append(rev[tr.To], tr.From)
	}
	return reachesAll(fwd, 0) && reachesAll(rev, 0)
}

func reachesAll(adj [][]int, start int) bool {
	n := len(adj)
	seen := make([]bool, n)
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// DOT renders the chain in Graphviz format with rates as edge labels;
// handy for eyeballing a model against the paper's figures.
func (c *CTMC) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", name)
	for _, n := range c.names {
		fmt.Fprintf(&sb, "  %q;\n", n)
	}
	for _, tr := range c.trans {
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", c.names[tr.From], c.names[tr.To], trimFloat(tr.Rate))
	}
	sb.WriteString("}\n")
	return sb.String()
}

func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6g", v), "0"), ".")
}
