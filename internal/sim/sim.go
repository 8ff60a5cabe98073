// Package sim implements the paper's Monte-Carlo reference model
// (§III): an event-driven simulation of a backed-up RAID array under
// disk failures, repair services, wrong-disk-replacement human errors,
// crashes of wrongly removed disks, and tape restores after data loss.
//
// Two replacement policies are modelled:
//
//   - Conventional: a technician replaces the failed disk while the
//     array is exposed; every service carries a human error
//     opportunity (paper Fig. 2's state structure).
//   - AutoFailover: a hot spare absorbs the failure via on-line
//     rebuild, and the human only touches the array afterwards
//     (delayed replacement, paper Fig. 3's state structure).
//
// Unlike the Markov models, the simulator accepts arbitrary
// time-to-failure and service-time distributions (the paper runs it
// with exponential and Weibull laws) and also tracks second-order
// events the CTMCs neglect, such as a further disk failure while the
// array is already unavailable.
//
// Availability is uptime divided by mission time, averaged over
// iterations, with a Student-t confidence interval (the paper reports
// 99% confidence over 1e6 iterations).
package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"herald/internal/dist"
	"herald/internal/stats"
	"herald/internal/xrand"
)

// Policy selects the disk replacement discipline.
type Policy int

const (
	// Conventional replaces the failed disk while the array is
	// exposed (no hot spare).
	Conventional Policy = iota
	// AutoFailover rebuilds onto a hot spare first and delays the
	// physical replacement until the array is redundant again.
	AutoFailover
	// DualParity is conventional replacement on an array that
	// tolerates two concurrent member losses (RAID6-style), mirroring
	// model.DualParityChain.
	DualParity
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Conventional:
		return "conventional"
	case AutoFailover:
		return "auto-failover"
	case DualParity:
		return "dual-parity"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a CLI or API token onto a Policy. Both the flag
// spellings (failover, dualparity) and the String() spellings
// (auto-failover, dual-parity) are accepted.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "conventional":
		return Conventional, nil
	case "failover", "auto-failover":
		return AutoFailover, nil
	case "dualparity", "dual-parity":
		return DualParity, nil
	default:
		return 0, fmt.Errorf("sim: unknown policy %q (want conventional, failover or dualparity)", s)
	}
}

// ArrayParams describes one RAID array for simulation. All durations
// are hours, all rates per hour.
type ArrayParams struct {
	// Disks is the total member count n (e.g. 4 for RAID5 3+1,
	// 2 for RAID1 1+1). The array survives any single member loss and
	// dies on a second concurrent loss.
	Disks int
	// TTF is the per-disk time-to-failure law (fresh disk).
	TTF dist.Distribution
	// Repair is the conventional replace-and-rebuild service time
	// (mean 1/muDF). Under AutoFailover it is the replacement service
	// performed in the no-spare exposed state.
	Repair dist.Distribution
	// TapeRestore is the data-loss recovery time from backup
	// (mean 1/muDDF).
	TapeRestore dist.Distribution
	// HERecovery is the duration of one attempt to undo a wrong
	// replacement (mean 1/muHE).
	HERecovery dist.Distribution
	// HEP is the per-service human error probability.
	HEP float64
	// CrashRate is the rate at which a wrongly removed (healthy) disk
	// crashes while out of the array (lambdaCrash).
	CrashRate float64
	// ResyncAfterUndo, when true, follows every successful undo of a
	// wrong replacement with a consistency restore from backup (a
	// TapeRestore-distributed outage), matching the paper's Fig. 1
	// walk-through in which each DU interval ends with a tape
	// recovery. See model.Params.ResyncAfterUndo for the calibration
	// argument. Conventional policy only.
	ResyncAfterUndo bool
	// Policy selects conventional replacement or automatic fail-over.
	Policy Policy
	// SpareRebuild is the on-line rebuild-to-hot-spare time
	// (mean 1/muS). AutoFailover only.
	SpareRebuild dist.Distribution
	// SpareSwap is the service time for replenishing the spare slot
	// (mean 1/muCH). AutoFailover only.
	SpareSwap dist.Distribution
}

// Validate checks the parameter set is complete for its policy.
func (p *ArrayParams) Validate() error {
	if p.Disks < 2 {
		return fmt.Errorf("sim: array needs at least 2 disks, got %d", p.Disks)
	}
	if p.TTF == nil || p.Repair == nil || p.TapeRestore == nil {
		return errors.New("sim: TTF, Repair and TapeRestore distributions are required")
	}
	// The negated-range forms catch NaN, which plain comparisons let
	// through (see Options.Validate).
	if !(p.HEP >= 0 && p.HEP <= 1) {
		return fmt.Errorf("sim: HEP %v outside [0,1]", p.HEP)
	}
	if p.HEP > 0 && p.HERecovery == nil {
		return errors.New("sim: HERecovery distribution required when HEP > 0")
	}
	if !(p.CrashRate >= 0) || math.IsInf(p.CrashRate, 1) {
		return fmt.Errorf("sim: crash rate %v must be non-negative and finite", p.CrashRate)
	}
	if p.Policy == AutoFailover && (p.SpareRebuild == nil || p.SpareSwap == nil) {
		return errors.New("sim: AutoFailover requires SpareRebuild and SpareSwap distributions")
	}
	if p.Policy == DualParity && p.Disks < 4 {
		return fmt.Errorf("sim: dual parity needs at least 4 disks, got %d", p.Disks)
	}
	if p.Policy != Conventional && p.Policy != AutoFailover && p.Policy != DualParity {
		return fmt.Errorf("sim: unknown policy %d", int(p.Policy))
	}
	return nil
}

// PaperDefaults returns the rate constants the paper's experiments use
// (§V-B): muDF = 0.1/h, muDDF = 0.03/h, muHE = 1/h, lambdaCrash =
// 0.01/h, a 10-hour mean on-line rebuild (muS = 0.1) and a quick
// spare swap (muCH = 1), exponential everything, for an n-disk array
// with per-disk failure rate lambda and human error probability hep.
// The post-undo resync is enabled (see ArrayParams.ResyncAfterUndo).
func PaperDefaults(n int, lambda, hep float64) ArrayParams {
	return ArrayParams{
		Disks:           n,
		TTF:             dist.NewExponential(lambda),
		Repair:          dist.NewExponential(0.1),
		TapeRestore:     dist.NewExponential(0.03),
		HERecovery:      dist.NewExponential(1),
		HEP:             hep,
		CrashRate:       0.01,
		ResyncAfterUndo: true,
		Policy:          Conventional,
		SpareRebuild:    dist.NewExponential(0.1),
		SpareSwap:       dist.NewExponential(1),
	}
}

// Kernel selects the Monte-Carlo walker specialization. The generic
// kernels simulate per-disk failure clocks and accept arbitrary laws;
// the memoryless kernels exploit the CTMC equivalence of fully
// exponential configurations (the same equivalence the paper uses to
// validate its simulator, §V-A): competing exponential risks collapse
// to one rate-based draw per event — min of n iid Exp(lambda) is
// Exp(n*lambda) — so no clock array is kept or scanned.
type Kernel int

const (
	// KernelAuto, the default, specializes to the rate-based
	// memoryless walkers when every law the policy draws from is
	// exponential (dist.Memoryless) and falls back to the generic
	// clock walkers otherwise. The kernels' estimates are
	// statistically interchangeable (pinned by CI-overlap tests; the
	// walkers differ only in a second-order aging-through-outages
	// refinement, see conventional_memoryless.go), but the draw
	// sequences differ: switching kernels changes the realization,
	// like changing the seed does.
	KernelAuto Kernel = iota
	// KernelGeneric forces the per-disk failure-clock walkers — the
	// reference implementation the specialized kernels are validated
	// against, and the only one that accepts non-exponential laws.
	KernelGeneric
	// KernelMemoryless forces the rate-based walkers. Runs reject
	// configurations whose laws are not all memoryless.
	KernelMemoryless
)

// String names the kernel as ParseKernel accepts it.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelGeneric:
		return "generic"
	case KernelMemoryless:
		return "memoryless"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel maps a CLI token onto a Kernel.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "auto":
		return KernelAuto, nil
	case "generic":
		return KernelGeneric, nil
	case "memoryless":
		return KernelMemoryless, nil
	default:
		return 0, fmt.Errorf("sim: unknown kernel %q (want auto, generic or memoryless)", s)
	}
}

// ResolveKernel reports the concrete kernel a run of p under k
// executes: KernelMemoryless or KernelGeneric. It errors when k
// forces the memoryless kernel on a configuration that is not fully
// memoryless for its policy.
func ResolveKernel(p ArrayParams, k Kernel) (Kernel, error) {
	_, useMem, err := resolveKernel(&p, k)
	if err != nil {
		return 0, err
	}
	if useMem {
		return KernelMemoryless, nil
	}
	return KernelGeneric, nil
}

// Realization numbers the mapping from a run's parameters and options
// to its Summary bytes. A change after which any run's Summary could
// differ (a new sampler, another draw order, another estimator) bumps
// it and re-pins TestRealizationPinned in the same change. Realization
// 1 is every build before the constant existed. shard.RunFingerprint
// hashes it and the shard hello carries it, so fingerprints,
// checkpoints, cache snapshot entries and workers of another
// realization never mix with this one's.
const Realization = 2

// Options controls a Monte-Carlo run.
type Options struct {
	// Iterations is the number of independent array lifetimes.
	Iterations int
	// MissionTime is the simulated horizon per iteration (hours).
	MissionTime float64
	// Seed drives the reproducible RNG; each iteration uses an
	// independent stream derived from it.
	Seed uint64
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
	// Confidence is the CI level for the availability estimate
	// (default 0.99, the paper's choice).
	Confidence float64
	// HistogramBins, when positive, collects a histogram of
	// per-iteration total downtime hours over
	// [0, HistogramMaxHours) into Summary.DowntimeHistogram. At most
	// maxHistogramBins.
	HistogramBins int
	// HistogramMaxHours is the histogram's upper edge (default, and
	// when zero: 1% of the mission time). Finite when set.
	HistogramMaxHours float64
	// Kernel selects the walker specialization (default KernelAuto).
	Kernel Kernel
	// TargetHalfWidth, when positive, makes the run adaptive
	// (precision-targeted): instead of executing a preset count, the
	// run grows the executed iteration prefix and stops at the first
	// canonical cell boundary where the sequential stopping rule
	// (stats.StopRule at Confidence, with its Student-t effective-N
	// safeguards) certifies the availability CI half-width at or below
	// this value. Iterations then bounds the run: it is the iteration
	// cap when MaxIters is zero, and the minimum executed iterations
	// when MaxIters is set. The reported Summary covers exactly the
	// iterations kept — see Summary.Iterations and Summary.Converged.
	TargetHalfWidth float64
	// MaxIters caps an adaptive run's executed iterations when
	// positive; it requires TargetHalfWidth and must be at least
	// Iterations (which becomes the minimum executed before the rule
	// may bind). Zero means Iterations is the cap.
	MaxIters int
	// Bias turns on failure-biasing importance sampling in the
	// memoryless walkers: event *selection* inflates every disk-failure
	// rate by this factor (holding times keep their nominal law, so
	// clocks stay calibrated) and each iteration carries the exact
	// likelihood ratio, accumulated as a running sum of per-event
	// rate-ratio logs. Estimates are reweighted, so they remain
	// consistent for the unbiased quantities; convergence switches to
	// the effective sample size (see stats.StopRule.MetWeighted and the
	// README's "Rare-event acceleration" section).
	//
	// 0 (and the no-op factor 1) disable biasing entirely; BiasAuto
	// picks a factor from the failure/repair rate ratio of the
	// configuration; factors > 1 are used as given. Requires the
	// memoryless kernel. The field is omitted from JSON when zero, so
	// unbiased fingerprints, checkpoints and cache keys are unchanged.
	Bias float64 `json:"Bias,omitempty"`

	// noBatch disables the batching transforms of the hot loop — the
	// exponential refill buffer and benign-cycle Erlang aggregation —
	// yielding the unbatched reference realization. Test-only
	// (unexported, settable from package tests); it never crosses the
	// JSON wire and does not participate in run fingerprints.
	noBatch bool
}

// Adaptive reports whether the options request a precision-targeted
// (sequentially stopped) run.
func (o *Options) Adaptive() bool { return o.TargetHalfWidth > 0 }

// Biased reports whether the options request importance sampling: an
// automatic or explicitly > 1 bias factor. An explicit factor of 1 is
// a no-op and runs the plain unbiased path (its fingerprint is
// normalized accordingly, see shard.RunFingerprint).
func (o *Options) Biased() bool { return o.Bias == BiasAuto || o.Bias > 1 }

// IterationCap returns the planned iteration ceiling of the run:
// MaxIters for adaptive runs that set it, Iterations otherwise. The
// canonical cell decomposition of an adaptive run is taken over the
// cap, so the executed prefix is always cell-aligned.
func (o *Options) IterationCap() int {
	if o.MaxIters > 0 {
		return o.MaxIters
	}
	return o.Iterations
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Confidence == 0 {
		out.Confidence = 0.99
	}
	return out
}

// maxHistogramBins bounds Options.HistogramBins. Every partial
// allocates the bins, so an unbounded count from a request body or a
// shard job is an out-of-memory crash, not an error; at this bound a
// checkpoint record of maxCells partials stays far below
// internal/ndjson's line limit.
const maxHistogramBins = 4096

// Validate checks the options.
func (o *Options) Validate() error {
	if o.Iterations < 1 {
		return fmt.Errorf("sim: iterations %d must be positive", o.Iterations)
	}
	if o.MissionTime <= 0 || math.IsNaN(o.MissionTime) || math.IsInf(o.MissionTime, 0) {
		return fmt.Errorf("sim: mission time %v must be positive and finite", o.MissionTime)
	}
	// The negated-range form catches NaN, which plain comparisons let
	// through straight into a Student-t quantile panic downstream.
	if !(o.Confidence >= 0 && o.Confidence < 1) {
		return fmt.Errorf("sim: confidence %v outside [0,1)", o.Confidence)
	}
	if o.Kernel != KernelAuto && o.Kernel != KernelGeneric && o.Kernel != KernelMemoryless {
		return fmt.Errorf("sim: unknown kernel %d", int(o.Kernel))
	}
	if o.TargetHalfWidth < 0 || math.IsNaN(o.TargetHalfWidth) || math.IsInf(o.TargetHalfWidth, 0) {
		return fmt.Errorf("sim: target half-width %v must be zero (fixed-N) or positive and finite", o.TargetHalfWidth)
	}
	if o.MaxIters < 0 {
		return fmt.Errorf("sim: max iterations %d must be non-negative", o.MaxIters)
	}
	if o.MaxIters > 0 {
		if o.TargetHalfWidth == 0 {
			return fmt.Errorf("sim: MaxIters %d set without TargetHalfWidth (fixed-N runs bound via Iterations)", o.MaxIters)
		}
		if o.MaxIters < o.Iterations {
			return fmt.Errorf("sim: MaxIters %d below the Iterations minimum %d", o.MaxIters, o.Iterations)
		}
	}
	if o.HistogramBins < 0 || o.HistogramBins > maxHistogramBins {
		return fmt.Errorf("sim: histogram bins %d outside [0,%d]", o.HistogramBins, maxHistogramBins)
	}
	if !(o.HistogramMaxHours >= 0) || math.IsInf(o.HistogramMaxHours, 0) {
		return fmt.Errorf("sim: histogram max hours %v must be zero (default) or positive and finite", o.HistogramMaxHours)
	}
	// The negated form catches NaN; Inf must be rejected explicitly.
	if o.Bias != 0 && o.Bias != BiasAuto && (!(o.Bias >= 1) || math.IsInf(o.Bias, 0)) {
		return fmt.Errorf("sim: bias factor %v must be 0 (off), sim.BiasAuto or a finite factor >= 1", o.Bias)
	}
	return nil
}

// EventCounts aggregates how often each incident type occurred across
// all iterations.
type EventCounts struct {
	Failures       int64 // individual disk failures
	DoubleFailures int64 // data-loss events (second concurrent loss)
	HumanErrors    int64 // wrong replacements (incl. failed undo attempts)
	Crashes        int64 // wrongly removed disks that crashed while out
	UndoAttempts   int64 // human-error recovery attempts
}

// Merge folds another census into this one. It is the integer
// counterpart of stats.Accumulator.Merge: shard partials and external
// callers combine per-range counts with it, and unlike the
// floating-point accumulators it is exactly associative.
func (e *EventCounts) Merge(o EventCounts) {
	e.Failures += o.Failures
	e.DoubleFailures += o.DoubleFailures
	e.HumanErrors += o.HumanErrors
	e.Crashes += o.Crashes
	e.UndoAttempts += o.UndoAttempts
}

// Summary is the result of a Monte-Carlo run.
type Summary struct {
	// Availability is the mean fraction of mission time the array was
	// up.
	Availability float64
	// HalfWidth is the Student-t confidence half-width of
	// Availability at the requested confidence level.
	HalfWidth float64
	// Nines is -log10(1 - Availability).
	Nines float64
	// MeanDowntimeDU / MeanDowntimeDL are mean hours per iteration
	// spent unavailable due to human error (DU) and data loss (DL).
	MeanDowntimeDU float64
	MeanDowntimeDL float64
	// Iterations is the iteration count the summary covers. For
	// adaptive runs this is the count actually kept — the cell boundary
	// the stopping rule bound at, or the cap when it never bound.
	Iterations  int
	MissionTime float64
	// Confidence echoes the CI level.
	Confidence float64
	// TargetHalfWidth echoes the adaptive precision target; zero for
	// fixed-N runs.
	TargetHalfWidth float64
	// Converged reports the stopping rule's verdict on the kept
	// iterations: target reached with the rule's effective-N
	// safeguards satisfied. A zero-variance or event-starved run that
	// went to its cap reports false even though its raw half-width is
	// 0. Always false for fixed-N runs.
	Converged bool
	// Events aggregates incident counts.
	Events EventCounts
	// Bias is the concrete failure-inflation factor an
	// importance-sampled run executed with (the resolved value when
	// Options.Bias was BiasAuto); 0 for unbiased runs. When set,
	// Availability/MeanDowntime* are the self-normalized weighted
	// estimates and HalfWidth is computed at ESS-based degrees of
	// freedom.
	Bias float64 `json:",omitempty"`
	// ESS is the Kish effective sample size (Σw)²/Σw² of a biased run's
	// importance weights — the equally-weighted iteration count carrying
	// the same information; 0 for unbiased runs.
	ESS float64 `json:",omitempty"`
	// AvailabilityHT is the Horvitz–Thompson availability estimate
	// Σwx/n of a biased run (unbiased in expectation; reported as a
	// weight-degeneracy diagnostic against the self-normalized
	// Availability); 0 for unbiased runs.
	AvailabilityHT float64 `json:",omitempty"`
	// DowntimeHistogram is the per-iteration total-downtime histogram
	// when Options.HistogramBins was set; nil otherwise.
	DowntimeHistogram *stats.Histogram
}

// MarshalJSON encodes the summary with non-finite derived fields as
// JSON null — Nines is +Inf when the estimate is exactly 1 (no
// downtime ever observed), which encoding/json would otherwise refuse
// to emit — keeping every summary wire-representable. Summaries whose
// fields are all finite encode byte-identically to the plain struct.
func (s Summary) MarshalJSON() ([]byte, error) {
	finiteOrNull := func(v float64) *float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil
		}
		return &v
	}
	// Mirrors Summary field for field (names and order) so the finite
	// encoding is unchanged.
	type wire struct {
		Availability      float64
		HalfWidth         *float64
		Nines             *float64
		MeanDowntimeDU    float64
		MeanDowntimeDL    float64
		Iterations        int
		MissionTime       float64
		Confidence        float64
		TargetHalfWidth   float64
		Converged         bool
		Events            EventCounts
		Bias              float64 `json:",omitempty"`
		ESS               float64 `json:",omitempty"`
		AvailabilityHT    float64 `json:",omitempty"`
		DowntimeHistogram *stats.Histogram
	}
	return json.Marshal(wire{
		Availability:      s.Availability,
		HalfWidth:         finiteOrNull(s.HalfWidth),
		Nines:             finiteOrNull(s.Nines),
		MeanDowntimeDU:    s.MeanDowntimeDU,
		MeanDowntimeDL:    s.MeanDowntimeDL,
		Iterations:        s.Iterations,
		MissionTime:       s.MissionTime,
		Confidence:        s.Confidence,
		TargetHalfWidth:   s.TargetHalfWidth,
		Converged:         s.Converged,
		Events:            s.Events,
		Bias:              s.Bias,
		ESS:               s.ESS,
		AvailabilityHT:    s.AvailabilityHT,
		DowntimeHistogram: s.DowntimeHistogram,
	})
}

// Interval returns the availability confidence interval.
func (s Summary) Interval() stats.Interval {
	return stats.Interval{Lo: s.Availability - s.HalfWidth, Hi: s.Availability + s.HalfWidth}
}

// Unavailability returns 1 - Availability.
func (s Summary) Unavailability() float64 { return stats.Unavailability(s.Availability) }

// iterStats is the outcome of one simulated lifetime. logW is the
// running log-likelihood ratio of an importance-sampled iteration
// (nominal law over proposal law; exactly 0 for unbiased runs, where
// every per-event constant feeding it is 0).
type iterStats struct {
	downDU, downDL float64
	logW           float64
	events         EventCounts
}

// Run executes the Monte-Carlo experiment and returns its summary.
//
// The run is decomposed into the canonical accumulation cells of
// [0, IterationCap()) (see CellSize): workers pull cells off a shared
// counter and accumulate each cell sequentially, and the contiguous
// completed prefix of cells is folded in index order as cells land.
// Because the decomposition and fold order depend only on the
// iteration count, the Summary is bit-identical for every worker count
// — and identical to Summarize over the same partials, and to a
// sharded run (internal/shard) that partitions the same cells across
// processes or machines. Adaptive runs (Options.TargetHalfWidth > 0)
// stop claiming cells at the first boundary where the stopping rule
// binds and report exactly the prefix up to it.
func Run(p ArrayParams, o Options) (Summary, error) {
	n := o.IterationCap()
	ro := o
	ro.Iterations = n
	opts, cells, err := prepareRange(&p, &ro, 0, n)
	if err != nil {
		return Summary{}, err
	}
	f, err := newFold(o, 0, n)
	if err != nil {
		return Summary{}, err
	}
	// landed parks cells that complete ahead of the folded prefix.
	var mu sync.Mutex
	landed := make([]*Partial, len(cells))
	next := 0
	execute(&p, opts, cells, nil, func(ci int, pt Partial) bool {
		mu.Lock()
		defer mu.Unlock()
		if f.stopAt != 0 || err != nil {
			return false
		}
		landed[ci] = &pt
		for ; next < len(cells) && landed[next] != nil; next++ {
			if err = f.add(landed[next]); err != nil || f.bind() {
				return false
			}
			landed[next] = nil
		}
		return true
	})
	if err != nil {
		return Summary{}, err
	}
	return f.summary(), nil
}

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

// expInv draws an exponential variate given the precomputed inverse
// rate; +Inf when invRate is 0 (rate-0 events never fire, see inv).
// It is the one consolidated exponential fast path of every walker —
// the crash-clock draws, the hot-loop service/TTF draws and the
// memoryless kernels' holding-time draws all go through it. Keeping
// the function to a single call plus a hoisted constant leaves it
// within the compiler's inlining budget (go build -gcflags=-m:
// "can inline expInv"), so the draw compiles to the bare ziggurat
// call and one multiply at every call site.
func expInv(r *xrand.Source, invRate float64) float64 {
	if invRate <= 0 {
		return plusInf
	}
	return r.ExpFloat64() * invRate
}

// inv returns 1/rate for positive rates and 0 otherwise — the
// representation expInv expects for events that never fire.
func inv(rate float64) float64 {
	if rate > 0 {
		return 1 / rate
	}
	return 0
}

// nextFailure returns the index and clamped time of the earliest
// failure clock, skipping excluded indices. Clocks earlier than now
// fire at now (a disk re-seated after its latent expiry fails
// immediately). Returns (-1, +Inf) when every disk is excluded.
func nextFailure(fail []float64, now float64, ex1, ex2 int) (int, float64) {
	idx, at := -1, math.Inf(1)
	for i, f := range fail {
		if i == ex1 || i == ex2 {
			continue
		}
		if f < at {
			idx, at = i, f
		}
	}
	if idx >= 0 && at < now {
		at = now
	}
	return idx, at
}

// twoMin returns the two earliest failure clocks in one scan: the
// overall minimum (i1, t1) and the runner-up (i2, t2), first index
// winning ties. Clamping expired clocks to "now" is left to the
// caller, keeping the function inside the inlining budget — it runs
// once per failure event in the conventional walker's hot loop,
// replacing two successive nextFailure scans.
func twoMin(fail []float64) (i1 int, t1 float64, i2 int, t2 float64) {
	i1, t1 = -1, plusInf
	i2, t2 = -1, plusInf
	for i, f := range fail {
		if f < t2 {
			if f < t1 {
				i2, t2 = i1, t1
				i1, t1 = i, f
			} else {
				i2, t2 = i, f
			}
		}
	}
	return i1, t1, i2, t2
}

// plusInf hoists the math.Inf call out of the inlining cost of the
// scan helpers.
var plusInf = math.Inf(1)

// twoMin4 is twoMin specialized to 4-member arrays (the paper's
// RAID5 3+1 workhorse): a 5-comparison tournament with the same
// first-index-wins-ties semantics as the scan, verified exhaustively
// against it in tests.
func twoMin4(fail []float64) (i1 int, t1 float64, i2 int, t2 float64) {
	w01, l01 := 0, 1
	if fail[1] < fail[0] {
		w01, l01 = 1, 0
	}
	w23, l23 := 2, 3
	if fail[3] < fail[2] {
		w23, l23 = 3, 2
	}
	if fail[w23] < fail[w01] {
		i1 = w23
		i2 = w01
		if fail[l23] < fail[w01] {
			i2 = l23
		}
	} else {
		i1 = w01
		i2 = l01
		if fail[w23] < fail[l01] {
			i2 = w23
		}
	}
	return i1, fail[i1], i2, fail[i2]
}

// pickOther returns a uniformly random index in [0, n) distinct from
// the excluded ones. It panics when no candidate exists.
func pickOther(r *xrand.Source, n, ex1, ex2 int) int {
	count := 0
	for i := 0; i < n; i++ {
		if i != ex1 && i != ex2 {
			count++
		}
	}
	if count == 0 {
		panic("sim: no disk available to pick")
	}
	k := int(r.Uint32n(uint32(count)))
	for i := 0; i < n; i++ {
		if i == ex1 || i == ex2 {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("sim: unreachable")
}

const noDisk = -1
