// Package herald evaluates the impact of human errors on the
// availability of data storage systems. It is an open reproduction of
// Kishani, Eftekhari & Asadi, "Evaluating Impact of Human Errors on
// the Availability of Data Storage Systems" (DATE 2017).
//
// # What it provides
//
//   - Analytic Markov availability models of RAID arrays under the
//     conventional disk replacement policy (paper Fig. 2) and the
//     automatic fail-over / delayed replacement policy with a hot
//     spare (paper Fig. 3), both extended with the human error states
//     (wrong disk replacement) the paper introduces, plus a
//     dual-parity extension (cmd/availcalc).
//   - A Monte-Carlo reference simulator (paper §III) supporting
//     arbitrary time-to-failure laws — exponential and Weibull in the
//     paper — and both replacement policies.
//   - RAID geometry / Effective Replication Factor planning for
//     equal-usable-capacity comparisons (paper §V-C).
//   - A reproduction harness regenerating every figure of the paper's
//     evaluation (cmd/repro).
//
// # Quick start
//
//	res, err := herald.SolveConventional(herald.PaperParams(4, 1e-6, 0.001))
//	if err != nil { ... }
//	fmt.Printf("availability: %.3f nines\n", res.Nines())
//
// All rates are per hour. See README.md for the simulator's design and
// cmd/repro for the paper-vs-measured tables.
package herald

import (
	"net"

	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/raid"
	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
	"herald/internal/stats"
	"herald/internal/sweep"
)

// Version identifies the library release.
const Version = "1.0.0"

// ---------------------------------------------------------------------
// Analytic (Markov) models
// ---------------------------------------------------------------------

// ConventionalParams parameterizes the conventional-replacement Markov
// model (paper Fig. 2). See the field docs in internal/model.
type ConventionalParams = model.Params

// FailoverParams parameterizes the automatic fail-over Markov model
// (paper Fig. 3).
type FailoverParams = model.FailoverParams

// ModelResult is a solved availability model: steady-state
// probabilities, availability, and the DU/DL unavailability breakdown.
type ModelResult = model.Result

// PaperParams returns the paper's §V-B defaults (muDF=0.1, muDDF=0.03,
// muHE=1, lambdaCrash=0.01, post-undo resync enabled) for an n-disk
// array with per-disk failure rate lambda (1/h) and human error
// probability hep.
func PaperParams(n int, lambda, hep float64) ConventionalParams {
	return model.Paper(n, lambda, hep)
}

// PaperFailoverParams returns the fail-over defaults (PaperParams plus
// muS=0.1, muCH=1, full Fig. 3 structure).
func PaperFailoverParams(n int, lambda, hep float64) FailoverParams {
	return model.PaperFailover(n, lambda, hep)
}

// SolveConventional builds and solves the conventional-replacement
// model. Up states: OP, EXP.
func SolveConventional(p ConventionalParams) (*ModelResult, error) {
	return model.Conventional(p)
}

// SolveFailover builds and solves the automatic fail-over model.
func SolveFailover(p FailoverParams) (*ModelResult, error) {
	return model.Failover(p)
}

// UnderestimationRatio returns unavail(hep)/unavail(0) for the given
// configuration: the factor by which a human-error-blind model
// underestimates downtime (the paper's headline is up to 263x).
func UnderestimationRatio(p ConventionalParams) (float64, error) {
	return model.UnderestimationRatio(p)
}

// FleetAvailability composes count identical independent arrays in
// series: availability^count.
func FleetAvailability(arrayAvailability float64, count int) float64 {
	return model.FleetAvailability(arrayAvailability, count)
}

// ---------------------------------------------------------------------
// Monte-Carlo simulation
// ---------------------------------------------------------------------

// SimParams describes an array for Monte-Carlo simulation; unlike the
// Markov models it accepts arbitrary distributions.
type SimParams = sim.ArrayParams

// SimOptions controls iteration count, mission time, seed, parallelism
// and confidence level. A positive TargetHalfWidth makes the run
// adaptive (precision-targeted): it stops at the first canonical cell
// boundary where the availability CI half-width reaches the target —
// see the README's "Adaptive precision" section.
type SimOptions = sim.Options

// SimSummary is a Monte-Carlo result with availability, confidence
// half-width and event counts.
type SimSummary = sim.Summary

// Replacement policies for SimParams.Policy.
const (
	// PolicyConventional replaces the failed disk while exposed.
	PolicyConventional = sim.Conventional
	// PolicyAutoFailover rebuilds onto a hot spare first.
	PolicyAutoFailover = sim.AutoFailover
	// PolicyDualParity is conventional replacement on a RAID6-style
	// array tolerating two concurrent losses.
	PolicyDualParity = sim.DualParity
)

// SimKernel selects the Monte-Carlo walker specialization via
// SimOptions.Kernel; see the README's "Kernel dispatch" section.
type SimKernel = sim.Kernel

const (
	// SimKernelAuto specializes fully exponential configurations to
	// the rate-based memoryless walkers (the default).
	SimKernelAuto = sim.KernelAuto
	// SimKernelGeneric forces the per-disk failure-clock walkers.
	SimKernelGeneric = sim.KernelGeneric
	// SimKernelMemoryless forces the rate-based walkers; runs reject
	// non-exponential laws.
	SimKernelMemoryless = sim.KernelMemoryless
)

// ResolveSimKernel reports the concrete kernel a simulation of p
// under k would execute (SimKernelMemoryless or SimKernelGeneric);
// it errors when k forces the memoryless kernel on a configuration
// with non-exponential laws.
func ResolveSimKernel(p SimParams, k SimKernel) (SimKernel, error) {
	return sim.ResolveKernel(p, k)
}

// ParseSimKernel maps "auto", "generic" or "memoryless" onto a
// SimKernel.
func ParseSimKernel(s string) (SimKernel, error) {
	return sim.ParseKernel(s)
}

// PaperSimParams returns the simulator defaults matching PaperParams.
func PaperSimParams(n int, lambda, hep float64) SimParams {
	return sim.PaperDefaults(n, lambda, hep)
}

// Simulate runs the Monte-Carlo reference model. Adaptive options
// (SimOptions.TargetHalfWidth) stop the run at the requested CI
// precision; the Summary's Iterations, TargetHalfWidth and Converged
// fields report where and whether it stopped.
func Simulate(p SimParams, o SimOptions) (SimSummary, error) { return sim.Run(p, o) }

// FleetSimSummary is the Monte-Carlo estimate for a series fleet of
// identical arrays.
type FleetSimSummary = sim.FleetSummary

// SimulateFleet estimates the availability of count identical arrays
// in series, with delta-method CI propagation.
func SimulateFleet(p SimParams, count int, o SimOptions) (FleetSimSummary, error) {
	return sim.RunFleet(p, count, o)
}

// ---------------------------------------------------------------------
// Sharded (multi-process / multi-machine) simulation
// ---------------------------------------------------------------------

// ShardWorker executes shard jobs for a ShardPool.
type ShardWorker = shard.Worker

// MaybeShardWorker turns this process into a shard worker when it was
// spawned by a sharded coordinator (SimulateSharded execs the current
// binary). Call it first thing in main() of any program that uses
// SimulateSharded; it returns immediately otherwise.
func MaybeShardWorker() { shard.MaybeWorker() }

// SimulateSharded runs the Monte-Carlo model on workerProcs local
// single-threaded worker processes (0 = one per core), which claim its
// cells in batches of 1/shards of the work left (0 = one share per
// worker slot): a one-point SimulateSweep. The Summary is bit-identical
// to Simulate with the same parameters, whatever the shard and worker
// counts; an optional non-empty checkpoint path makes the run
// resumable after a kill. The calling binary's main must start with
// MaybeShardWorker.
func SimulateSharded(p SimParams, o SimOptions, shards, workerProcs int, checkpoint string) (SimSummary, error) {
	res, err := SimulateSweep([]SweepPoint{{Params: p, Options: o, Shards: shards, Checkpoint: checkpoint}}, workerProcs)
	if len(res) == 0 {
		return SimSummary{}, err
	}
	return res[0].Summary, err
}

// ShardNetConfig tunes the TCP transport of the shard protocol:
// shared-token authentication, TLS, the heartbeat cadence bounding
// half-open-connection detection, whether a joining worker reconnects,
// and the listeners' log. The zero value is a plaintext,
// unauthenticated link.
type ShardNetConfig = shard.NetConfig

// DialShardWorkerNet attaches a remote worker serving the shard
// protocol over TCP (ServeShardWorkersNet, or `availsim -shard-serve`).
func DialShardWorkerNet(addr string, nc ShardNetConfig) (ShardWorker, error) {
	return shard.DialNet(addr, nc)
}

// ServeShardWorkersNet turns this process into a TCP shard worker
// serving jobs on addr until the listener fails.
func ServeShardWorkersNet(addr string, nc ShardNetConfig) error {
	return shard.ListenAndServeNetStop(addr, nc, nil, nil)
}

// JoinShardCoordinator dials a coordinator accepting shard workers
// (ListenShardWorkers, or `availsim -shard-listen`), registers with
// the advertised capacity (0 = all local cores), and serves jobs until
// the coordinator closes the connection — or, with nc.Retry, until a
// clean close, reconnecting after transport failures.
func JoinShardCoordinator(addr string, capacity int, nc ShardNetConfig) error {
	return shard.Join(addr, capacity, nc, nil)
}

// ListenShardWorkers accepts workers joining via JoinShardCoordinator
// (or `availsim -shard-join`) on addr, delivering each on the returned
// channel, ready to be NewShardPool's elastic source. Close the
// listener to stop accepting and close the channel.
func ListenShardWorkers(addr string, nc ShardNetConfig) (net.Listener, <-chan ShardWorker, error) {
	return shard.ListenWorkers(addr, nc)
}

// ---------------------------------------------------------------------
// Pipelined scenario sweeps
// ---------------------------------------------------------------------

// SweepPoint is one scenario of a pipelined Monte-Carlo sweep: a
// label plus the full simulation configuration (adaptive options make
// the point precision-targeted).
type SweepPoint = sweep.MCPoint

// SweepResult is one sweep point's outcome: its Summary (bit-identical
// to running the point alone), run statistics, and completion offset.
type SweepResult = sweep.MCResult

// SimulateSweep executes scenario points pipelined through one shared
// pool of workerProcs local worker processes (0 = one per core):
// point k+1's shards start while point k drains, so the pool never
// idles at scenario boundaries. The calling binary's main must start
// with MaybeShardWorker.
func SimulateSweep(points []SweepPoint, workerProcs int) ([]SweepResult, error) {
	workers, _, release, err := shard.WorkerSet{Local: workerProcs}.Open()
	if err != nil {
		return nil, err
	}
	defer release()
	return sweep.MonteCarlo(points, workers, nil)
}

// ---------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------

// Distribution is the sampling interface consumed by the simulator.
type Distribution = dist.Distribution

// Weibull returns a Weibull law with the given shape and scale (h).
func Weibull(shape, scale float64) Distribution { return dist.NewWeibull(shape, scale) }

// WeibullFromMeanRate returns the Weibull law with the given shape
// whose mean time to failure is 1/rate, as used in the paper's Fig. 5.
func WeibullFromMeanRate(rate, shape float64) Distribution {
	return dist.WeibullFromMeanRate(rate, shape)
}

// ---------------------------------------------------------------------
// RAID geometry
// ---------------------------------------------------------------------

// RAIDConfig is an array geometry (level, data disks, parity disks).
type RAIDConfig = raid.Config

// Fleet is a set of identical arrays meeting a usable-capacity target.
type Fleet = raid.Fleet

// Paper geometries.
var (
	// RAID1Mirror is RAID1 (1+1).
	RAID1Mirror = raid.R1Mirror
	// RAID5Small is RAID5 (3+1).
	RAID5Small = raid.R5Small
	// RAID5Wide is RAID5 (7+1).
	RAID5Wide = raid.R5Wide
)

// PlanFleet returns the smallest fleet of identical arrays reaching
// the usable capacity (in disk units).
func PlanFleet(c RAIDConfig, usableDisks int) (Fleet, error) {
	return raid.PlanFleet(c, usableDisks)
}

// EquivalentCapacity returns the least usable capacity every supplied
// geometry divides evenly (the paper's fair comparison point).
func EquivalentCapacity(configs ...RAIDConfig) (int, error) {
	return raid.EquivalentCapacity(configs...)
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

// Nines converts availability to -log10(1-A).
func Nines(availability float64) float64 { return stats.Nines(availability) }

// DowntimeHoursPerYear converts availability to expected yearly
// downtime hours.
func DowntimeHoursPerYear(availability float64) float64 {
	return stats.DowntimeHoursPerYear(availability)
}

// ---------------------------------------------------------------------
// Availability as a service
// ---------------------------------------------------------------------

// SimFingerprint is the canonical identity of a run's result: a
// stable hash over every result-affecting input (parameters and
// options, schedule-only knobs excluded). Equal fingerprints mean
// byte-identical Summaries, whatever the worker or shard count — it
// is the exact cache key availserve and SweepResult.Fingerprint use.
// The kernel is resolved first, the way availserve resolves it, so an
// auto-kernel run and the same run with its resolved kernel share one
// fingerprint. Parameters or options that fail validation are an
// error, never a fingerprint.
func SimFingerprint(p SimParams, o SimOptions) (string, error) {
	_, fp, err := shard.Identify(p, o)
	return fp, err
}

// ShardPool is the shard execution engine: a worker pool accepting
// runs over its lifetime (Submit, then Ticket.Wait), behind sharded
// runs, sweeps and the availability service.
type ShardPool = shard.Pool

// ShardRunSpec is one run submitted to a ShardPool.
type ShardRunSpec = shard.RunSpec

// ShardRunProgress is one progress observation of a pool run (folded
// prefix, adaptive half-width, convergence).
type ShardRunProgress = shard.RunProgress

// ShardPoolOptions tunes a ShardPool: its warning log and the
// degraded-mode in-process fallback when the pool drains.
type ShardPoolOptions = shard.PoolOptions

// NewShardPool starts a pool on the given workers and optional elastic
// worker source; nil opts are the defaults. Close the pool to release
// them.
func NewShardPool(workers []ShardWorker, source <-chan ShardWorker, opts *ShardPoolOptions) (*ShardPool, error) {
	return shard.NewPool(workers, source, opts)
}

// ServiceConfig configures the availability-simulation HTTP service;
// see internal/serve and cmd/availserve.
type ServiceConfig = serve.Config

// Service is the availability-simulation HTTP handler: fingerprint-
// keyed result caching, singleflight dedup of identical requests,
// streamed progress for adaptive runs, admission control and graceful
// drain.
type Service = serve.Server

// NewService builds a Service on a ShardPool.
func NewService(cfg ServiceConfig) (*Service, error) { return serve.NewServer(cfg) }
