// Command availsim runs the Monte-Carlo reference availability model
// (paper §III) for one array configuration and prints the estimate
// with its confidence interval and the event census.
//
// Time-to-failure (-dist) and replacement service (-repair-dist) laws
// can be drawn from any family in internal/dist; each is
// parameterized so its mean matches the corresponding rate flag
// (1/lambda for TTF, 1/mu-df for the service).
//
// Examples:
//
//	availsim -disks 4 -lambda 1e-6 -hep 0.001 -iters 100000
//	availsim -dist weibull -shape 1.48 -lambda 2e-5 -hep 0.01
//	availsim -dist gamma -shape 2.5 -lambda 1e-5
//	availsim -dist erlang -stages 3 -lambda 1e-5
//	availsim -dist lognormal -sigma 1.2 -lambda 1e-5
//	availsim -dist hyperexp -hyper-weights 0.9,0.1 -hyper-rates 2e-5,1e-6
//	availsim -repair-dist lognormal -repair-sigma 0.8 -mu-df 0.1
//	availsim -policy failover -disks 4 -lambda 1e-5 -hep 0.01
//
// Paper-scale runs shard across processes and machines (see README.md
// "Sharded execution"): workers claim the run's cells in guided
// batches, -shards N > 1 sizes each batch as 1/N of the work left (by
// default, one share per live worker slot), -workers sets the local
// worker-process count, -checkpoint makes the run resumable, and
// -shard-serve turns this host into a TCP worker that -shard-connect
// attaches. Alternatively the coordinator opens a
// registration port with -shard-listen and worker boxes dial in with
// -shard-join, joining (and leaving) while the run executes. Both
// modes authenticate with -shard-token and encrypt with the
// -shard-tls-* flags:
//
//	availsim -iters 1000000 -shards 16 -workers 8
//	availsim -iters 1000000 -shards 32 -checkpoint run.ckpt
//	availsim -shard-serve :9009                   # on a worker box
//	availsim -iters 1000000 -shards 32 -shard-connect box1:9009,box2:9009
//	availsim -iters 1000000 -shards 32 -shard-listen :9009 -shard-token s3cret
//	availsim -shard-join coord:9009 -shard-token s3cret   # on each worker box
//
// Adaptive (precision-targeted) runs stop at a requested CI half-width
// instead of a preset count (README.md "Adaptive precision"); -iters
// becomes the cap, and sharded adaptive runs claim cells up to the
// stopping point projected from the iterations folded so far:
//
//	availsim -target-halfwidth 5e-9 -iters 1000000
//	availsim -target-halfwidth 5e-9 -iters 1000000 -shards 16 -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"herald/internal/dist"
	"herald/internal/prof"
	"herald/internal/report"
	"herald/internal/shard"
	"herald/internal/sim"
)

// distFamilies names the supported law families for -dist and
// -repair-dist.
const distFamilies = "exp, weibull, lognormal, gamma, erlang or hyperexp"

// lawFlags bundles the shape flags of one distribution selection.
type lawFlags struct {
	family  string
	shape   float64 // weibull / gamma shape
	sigma   float64 // lognormal log-space standard deviation
	stages  int     // erlang stage count
	hyperW  string  // hyperexp branch weights (comma-separated)
	hyperR  string  // hyperexp branch rates (comma-separated, 1/h)
	flagTag string  // flag-name prefix for error messages ("" or "repair-")
}

// build constructs the law with mean 1/rate (except hyperexp, whose
// branch rates are explicit).
func (lf *lawFlags) build(rate float64) (dist.Distribution, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("-%s"+format, append([]any{lf.flagTag}, args...)...)
	}
	switch lf.family {
	case "exp":
		return dist.NewExponential(rate), nil
	case "weibull":
		if !(lf.shape > 0) || math.IsInf(lf.shape, 0) {
			return nil, bad("shape must be a positive finite value, got %v", lf.shape)
		}
		return dist.WeibullFromMeanRate(rate, lf.shape), nil
	case "lognormal":
		if !(lf.sigma > 0) || math.IsInf(lf.sigma, 0) {
			return nil, bad("sigma must be a positive finite value, got %v", lf.sigma)
		}
		// Mean-matched: mu = ln(1/rate) - sigma^2/2.
		return dist.NewLognormal(-math.Log(rate)-lf.sigma*lf.sigma/2, lf.sigma), nil
	case "gamma":
		if !(lf.shape > 0) || math.IsInf(lf.shape, 0) {
			return nil, bad("shape must be a positive finite value, got %v", lf.shape)
		}
		// Mean shape/(shape*rate) = 1/rate.
		return dist.NewGamma(lf.shape, lf.shape*rate), nil
	case "erlang":
		if lf.stages < 1 {
			return nil, bad("stages must be >= 1, got %d", lf.stages)
		}
		return dist.NewErlang(lf.stages, float64(lf.stages)*rate), nil
	case "hyperexp":
		weights, err := parseCSV(lf.hyperW)
		if err != nil {
			return nil, bad("hyper-weights: %v", err)
		}
		rates, err := parseCSV(lf.hyperR)
		if err != nil {
			return nil, bad("hyper-rates: %v", err)
		}
		if len(weights) != len(rates) || len(weights) == 0 {
			return nil, bad("hyper-weights and -%shyper-rates need the same non-zero length, got %d and %d",
				lf.flagTag, len(weights), len(rates))
		}
		for _, r := range rates {
			if !(r > 0) || math.IsInf(r, 0) {
				return nil, bad("hyper-rates must be positive finite values, got %v", r)
			}
		}
		sum := 0.0
		for _, w := range weights {
			if !(w >= 0) || math.IsInf(w, 0) {
				return nil, bad("hyper-weights must be non-negative finite values, got %v", w)
			}
			sum += w
		}
		if sum <= 0 {
			return nil, bad("hyper-weights must sum to a positive value")
		}
		return dist.NewHyperExponential(weights, rates), nil
	default:
		return nil, fmt.Errorf("unknown -%sdist %q (want %s)", lf.flagTag, lf.family, distFamilies)
	}
}

// parseBiasFlag maps the -bias token onto an Options.Bias value,
// naming the flag in the error so a bad value reads as a flag problem
// rather than an internal one.
func parseBiasFlag(s string) (float64, error) {
	v, err := sim.ParseBias(s)
	if err != nil {
		return 0, fmt.Errorf("-bias must be \"auto\" or a finite factor >= 1, got %q", s)
	}
	return v, nil
}

// parseCSV parses a comma-separated float list.
func parseCSV(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad element %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func main() {
	// When spawned by a sharded coordinator, this process serves jobs
	// over stdio and never reaches the CLI below.
	shard.MaybeWorker()

	var (
		disks  = flag.Int("disks", 4, "total member disks n")
		lambda = flag.Float64("lambda", 1e-6, "per-disk failure rate (1/h); the TTF law's mean is 1/lambda")
		hep    = flag.Float64("hep", 0.001, "human error probability per service")

		ttf = lawFlags{flagTag: ""}
		rep = lawFlags{flagTag: "repair-"}

		policy      = flag.String("policy", "conventional", "replacement policy: conventional, failover or dualparity")
		muDF        = flag.Float64("mu-df", 0.1, "replacement/rebuild rate (1/h); the service law's mean is 1/mu-df")
		muDDF       = flag.Float64("mu-ddf", 0.03, "backup restore rate (1/h)")
		muHE        = flag.Float64("mu-he", 1, "human error undo rate (1/h)")
		muS         = flag.Float64("mu-s", 0.1, "on-line rebuild-to-spare rate (failover)")
		muCH        = flag.Float64("mu-ch", 1, "spare swap rate (failover)")
		lambdaCrash = flag.Float64("lambda-crash", 0.01, "pulled-disk crash rate (1/h)")
		noResync    = flag.Bool("no-resync", false, "skip the post-undo resync outage")
		kernel      = flag.String("kernel", "auto", "Monte-Carlo kernel: auto (rate-based walkers when every law is exponential), generic (per-disk clock walkers) or memoryless (force; rejects non-exponential laws)")
		bias        = flag.String("bias", "", "failure-biased importance sampling: a finite inflation factor >= 1, or auto to pick one from the failure/repair rate ratio; needs the memoryless kernel (empty = off)")
		targetHW    = flag.Float64("target-halfwidth", 0, "adaptive precision target: stop when the availability CI half-width reaches this value (sequential sampling; -iters becomes the cap, or the minimum when -max-iters is set)")
		maxIters    = flag.Int("max-iters", 0, "iteration cap for adaptive runs (requires -target-halfwidth; -iters then floors the executed count)")
		iters       = flag.Int("iters", 20000, "Monte-Carlo iterations (paper: 1e6); with -target-halfwidth, the cap instead")
		mission     = flag.Float64("mission", 1e6, "mission time per iteration (h)")
		seed        = flag.Uint64("seed", 42, "PRNG seed")
		workers     = flag.Int("workers", 0, "parallel workers: goroutines single-process, local worker processes when sharded (0 = GOMAXPROCS)")
		confidence  = flag.Float64("confidence", 0.99, "confidence level for the interval")

		shards       = flag.Int("shards", 0, "shard the run across worker processes/machines, each claim taking 1/N of the work left (N > 1 implies sharded execution; 0 = one share per live worker slot; results are bit-identical for every N)")
		checkpoint   = flag.String("checkpoint", "", "checkpoint log path: completed ranges are recorded and a rerun resumes from them under any -shards (implies sharded execution)")
		shardConnect = flag.String("shard-connect", "", "comma-separated host:port list of remote TCP workers (availsim -shard-serve) to attach")
		shardServe   = flag.String("shard-serve", "", "run as a TCP shard worker on this address instead of simulating")

		shardJoin      = flag.String("shard-join", "", "join a coordinator (availsim -shard-listen) as a shard worker instead of simulating")
		shardCapacity  = flag.Int("shard-capacity", 0, "job parallelism advertised when joining via -shard-join (0 = all local cores)")
		joinRetry      = flag.Bool("join-retry", true, "supervise -shard-join: reconnect after transport failures with capped exponential backoff; a clean coordinator close still exits (false: exit on any error)")
		shardListen    = flag.String("shard-listen", "", "accept shard workers joining via -shard-join on this address for the run (implies sharded execution)")
		shardToken     = flag.String("shard-token", "", "shared secret authenticating shard connections; both ends must agree (HMAC handshake, the token never crosses the wire)")
		shardTLSCert   = flag.String("shard-tls-cert", "", "PEM certificate enabling TLS on listening shard sockets (-shard-serve, -shard-listen; with -shard-tls-key); on dialing sides, the client certificate for mutual TLS")
		shardTLSKey    = flag.String("shard-tls-key", "", "PEM private key paired with -shard-tls-cert")
		cpuProfile     = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file (go tool pprof format)")
		memProfile     = flag.String("memprofile", "", "write an allocation heap profile to this file after the simulation (go tool pprof format)")
		shardTLSCA     = flag.String("shard-tls-ca", "", "PEM CA bundle: dialing sides verify the server against it (enables TLS on -shard-connect/-shard-join); listening sides additionally require client certificates chained to it (mutual TLS)")
		shardHeartbeat = flag.Duration("shard-heartbeat", 0, "shard liveness heartbeat interval; a peer silent for 4 intervals is declared dead and its work reassigned (0 = 3s)")
	)
	flag.StringVar(&ttf.family, "dist", "exp", "time-to-failure law: "+distFamilies)
	flag.Float64Var(&ttf.shape, "shape", 1.2, "TTF shape (weibull, gamma)")
	flag.Float64Var(&ttf.sigma, "sigma", 1, "TTF log-space standard deviation (lognormal)")
	flag.IntVar(&ttf.stages, "stages", 2, "TTF stage count (erlang)")
	flag.StringVar(&ttf.hyperW, "hyper-weights", "0.5,0.5", "TTF branch weights (hyperexp)")
	flag.StringVar(&ttf.hyperR, "hyper-rates", "", "TTF branch rates 1/h (hyperexp)")
	flag.StringVar(&rep.family, "repair-dist", "exp", "replacement service law: "+distFamilies)
	flag.Float64Var(&rep.shape, "repair-shape", 1.2, "service shape (weibull, gamma)")
	flag.Float64Var(&rep.sigma, "repair-sigma", 1, "service log-space standard deviation (lognormal)")
	flag.IntVar(&rep.stages, "repair-stages", 2, "service stage count (erlang)")
	flag.StringVar(&rep.hyperW, "repair-hyper-weights", "0.5,0.5", "service branch weights (hyperexp)")
	flag.StringVar(&rep.hyperR, "repair-hyper-rates", "", "service branch rates 1/h (hyperexp)")
	flag.Parse()

	dialNC, listenNC, err := shard.NetConfigs(shard.NetConfig{Token: *shardToken, HeartbeatInterval: *shardHeartbeat, Log: os.Stderr},
		*shardTLSCert, *shardTLSKey, *shardTLSCA)
	exitOn(err)

	if *shardServe != "" {
		err := shard.ListenAndServeNetStop(*shardServe, listenNC, func(a net.Addr) {
			fmt.Fprintf(os.Stderr, "availsim: serving shard jobs on %s\n", a)
		}, stopOnSignal())
		exitOn(err)
		fmt.Fprintln(os.Stderr, "availsim: shard worker drained, exiting")
		return
	}
	if *shardJoin != "" {
		fmt.Fprintf(os.Stderr, "availsim: joining shard coordinator %s\n", *shardJoin)
		dialNC.Retry = *joinRetry
		exitOn(shard.Join(*shardJoin, *shardCapacity, dialNC, stopOnSignal()))
		fmt.Fprintln(os.Stderr, "availsim: shard worker drained, exiting")
		return
	}

	// Out-of-range confidence levels used to reach the Student-t
	// quantile deep inside a run; reject them at the flag boundary.
	if !(*confidence > 0 && *confidence < 1) {
		exitOn(fmt.Errorf("-confidence must be inside (0,1), got %v", *confidence))
	}

	// The distribution constructors treat non-positive rates as
	// programmer errors and panic; turn bad flag values into flag
	// errors instead.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-lambda", *lambda}, {"-mu-df", *muDF},
		{"-mu-ddf", *muDDF}, {"-mu-he", *muHE}, {"-mu-s", *muS}, {"-mu-ch", *muCH},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			exitOn(fmt.Errorf("%s must be a positive finite value, got %v", f.name, f.v))
		}
	}

	p := sim.ArrayParams{
		Disks:           *disks,
		TapeRestore:     dist.NewExponential(*muDDF),
		HERecovery:      dist.NewExponential(*muHE),
		HEP:             *hep,
		CrashRate:       *lambdaCrash,
		ResyncAfterUndo: !*noResync,
		SpareRebuild:    dist.NewExponential(*muS),
		SpareSwap:       dist.NewExponential(*muCH),
	}
	if p.TTF, err = ttf.build(*lambda); err != nil {
		exitOn(err)
	}
	if p.Repair, err = rep.build(*muDF); err != nil {
		exitOn(err)
	}
	if p.Policy, err = sim.ParsePolicy(*policy); err != nil {
		exitOn(err)
	}

	kern, err := sim.ParseKernel(*kernel)
	exitOn(err)
	biasF, err := parseBiasFlag(*bias)
	exitOn(err)
	o := sim.Options{
		Iterations:      *iters,
		MissionTime:     *mission,
		Seed:            *seed,
		Workers:         *workers,
		Confidence:      *confidence,
		Kernel:          kern,
		Bias:            biasF,
		TargetHalfWidth: *targetHW,
		MaxIters:        *maxIters,
	}
	// Resolve validates the run and resolves its kernel, so -kernel
	// memoryless on a non-exponential law or a biased generic run fails
	// before any sharded machinery spins up, and the report can name the
	// kernel that ran. The run keeps the options as given: a checkpoint
	// binds their fingerprint.
	resolved, err := sim.Resolve(p, o)
	exitOn(err)
	// Profiles bracket only the Monte-Carlo work, not flag parsing or
	// report formatting.
	stopProf, perr := prof.Start(*cpuProfile, *memProfile)
	exitOn(perr)
	var s sim.Summary
	if *shards > 1 || *shardConnect != "" || *checkpoint != "" || *shardListen != "" {
		s, err = runSharded(p, o, *shards, *checkpoint, shard.WorkerSet{
			Local: *workers, Connect: *shardConnect, Listen: *shardListen, Dialer: dialNC, Listener: listenNC,
		})
	} else {
		s, err = sim.Run(p, o)
	}
	exitOn(err)
	exitOn(stopProf())

	t := report.NewTable(
		fmt.Sprintf("Monte-Carlo availability, %d-disk array, %s policy, TTF %s, service %s",
			*disks, p.Policy, p.TTF, p.Repair),
		"metric", "value")
	t.AddRow("availability", fmt.Sprintf("%.12f", s.Availability))
	t.AddRow("nines", report.F3(s.Nines))
	t.AddRow(fmt.Sprintf("CI half-width (%.0f%%)", *confidence*100), report.E(s.HalfWidth))
	t.AddRow("mean DU downtime / iteration", fmt.Sprintf("%.4g h", s.MeanDowntimeDU))
	t.AddRow("mean DL downtime / iteration", fmt.Sprintf("%.4g h", s.MeanDowntimeDL))
	t.AddRow("disk failures", fmt.Sprintf("%d", s.Events.Failures))
	t.AddRow("double disk failures", fmt.Sprintf("%d", s.Events.DoubleFailures))
	t.AddRow("human errors", fmt.Sprintf("%d", s.Events.HumanErrors))
	t.AddRow("pulled-disk crashes", fmt.Sprintf("%d", s.Events.Crashes))
	t.AddRow("undo attempts", fmt.Sprintf("%d", s.Events.UndoAttempts))
	if s.Bias > 0 {
		t.AddRow("effective sample size", fmt.Sprintf("%.1f", s.ESS))
	}
	if o.Adaptive() {
		state := "cap reached without convergence"
		if s.Converged {
			state = "converged"
		}
		t.AddNote("adaptive: target half-width %.3g, stopped at %d of <= %d iterations (%s)",
			s.TargetHalfWidth, s.Iterations, o.IterationCap(), state)
	}
	biasNote := ""
	if s.Bias > 0 {
		biasNote = fmt.Sprintf(", failure bias x%.4g", s.Bias)
	}
	t.AddNote("%d iterations x %.3g h mission, seed %d, %s kernel%s", s.Iterations, s.MissionTime, *seed, resolved.Kernel, biasNote)
	if _, err := t.WriteTo(os.Stdout); err != nil {
		exitOn(err)
	}
}

// runSharded executes the run through the shard coordinator on the
// workers set opens: -workers local processes, -shard-connect remotes
// and -shard-listen joiners.
func runSharded(p sim.ArrayParams, o sim.Options, shards int, checkpoint string, set shard.WorkerSet) (sim.Summary, error) {
	workers, joiners, release, err := set.Open()
	if err != nil {
		return sim.Summary{}, err
	}
	defer release()
	pool, err := shard.NewPool(workers, joiners, &shard.PoolOptions{Log: os.Stderr})
	if err != nil {
		return sim.Summary{}, err
	}
	defer pool.Close()
	tk, err := pool.Submit(context.Background(), shard.RunSpec{Params: p, Options: o, Shards: shards, Checkpoint: checkpoint}, nil)
	if err != nil {
		return sim.Summary{}, err
	}
	res, err := tk.Wait()
	return res.Summary, err
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "availsim:", err)
		os.Exit(1)
	}
}

// stopOnSignal returns a channel that closes on the first SIGINT or
// SIGTERM, switching the long-lived worker modes to a graceful drain:
// finish the running job, hand queued jobs back for reassignment,
// exit 0.
func stopOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "availsim: %v received, draining\n", s)
		close(stop)
		signal.Stop(sig)
	}()
	return stop
}
