package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"herald/internal/dist"
	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
	"herald/internal/xrand"
)

// runInput is one simulation run a workload submits: its parameters in
// wire form and its options, exactly as the program receives them.
type runInput struct {
	Label   string           `json:"label"`
	Class   string           `json:"class"`
	Params  shard.WireParams `json:"params"`
	Options sim.Options      `json:"options"`

	p  sim.ArrayParams
	fp string // run fingerprint of the full run
	// jobFP is the fingerprint every shard job of the run carries:
	// adaptive fields stripped, iterations raised to the cap.
	jobFP string
}

func newRunInput(label, class string, p sim.ArrayParams, o sim.Options) (runInput, error) {
	w, err := shard.EncodeParams(p)
	if err != nil {
		return runInput{}, err
	}
	jo := o
	jo.Iterations = o.IterationCap()
	jo.TargetHalfWidth, jo.MaxIters = 0, 0
	return runInput{
		Label: label, Class: class, Params: w, Options: o, p: p,
		fp:    shard.RunFingerprint(w, o),
		jobFP: shard.RunFingerprint(w, jo),
	}, nil
}

// request lowers the input to an availserve request body.
func (in *runInput) request() serve.RunRequest {
	o := in.Options
	bias := ""
	switch {
	case o.Bias == sim.BiasAuto:
		bias = "auto"
	case o.Bias > 0:
		bias = strconv.FormatFloat(o.Bias, 'g', -1, 64)
	}
	return serve.RunRequest{Params: in.Params, Options: serve.RunOptions{
		Iterations:      o.Iterations,
		MissionTime:     o.MissionTime,
		Seed:            o.Seed,
		Confidence:      o.Confidence,
		Kernel:          o.Kernel.String(),
		Bias:            bias,
		TargetHalfWidth: o.TargetHalfWidth,
		MaxIters:        o.MaxIters,
	}}
}

// arrival is one scheduled request of the open-loop generator.
type arrival struct {
	At     time.Duration `json:"at"`
	Stream bool          `json:"stream,omitempty"`
	Run    runInput      `json:"run"`
}

// inputs is everything a workload submits, derived from the seed alone
// before any timing starts.
type inputs struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Passes   int     `json:"passes,omitempty"`
	Rate     float64 `json:"rate_per_s,omitempty"`
	// Runs is one pass of a closed-loop workload: the sweep's points or
	// the precision-targeted run sequence.
	Runs []runInput `json:"runs,omitempty"`
	// Hot is the serve workload's cache-warm set; Windows holds one
	// arrival schedule per measured window.
	Hot     []runInput  `json:"hot,omitempty"`
	Windows [][]arrival `json:"windows,omitempty"`
}

// Workload sizing. Paper-sweep grid points run 2e6 iterations, so each
// of the two shards carries 1e6; a pass takes about 8.5 s on two cores,
// a precision-tcp pass about 4.3 s. The pass counts follow from
// --seconds and these nominal times, so every run of a given length
// measures the same work.
const (
	paperIters     = 2_000_000
	weibullIters   = 250_000
	paperPassS     = 8.5
	precisionRuns  = 108
	precisionPassS = 4.3
	// minPrecisionPasses keeps at least 200 run latencies per
	// measurement, so the tail is the 95th percentile.
	minPrecisionPasses = 3
	serveRate          = 20.0 // arrivals per second (a duplicate pair is one arrival)
	serveHot           = 16
	// serveSlices splits the open-loop schedule into thirds whose
	// latency percentiles are reported by their median; at 20 s a third
	// holds about 147 requests, so its tail is the 90th percentile.
	serveSlices = 3
	// serveLimit is the latency a served request must meet to count
	// toward goodput.
	serveLimit = 500 * time.Millisecond
	missIters  = 20_000
	mission    = 1e6
)

var workloadNames = []string{"paper-sweep", "serve-mixed", "precision-tcp"}

// makeInputs derives a workload's inputs from its seed. windows is the
// number of measured windows (two when a traced run follows an untraced
// one); seconds sizes each window.
func makeInputs(workload string, seed uint64, seconds float64, windows int) (*inputs, error) {
	in := &inputs{Workload: workload, Seed: seed, Seconds: seconds}
	r := xrand.NewStream(seed, 1)
	var err error
	switch workload {
	case "paper-sweep":
		in.Passes = max(1, int(math.Round(seconds/paperPassS)))
		in.Runs, err = paperPoints(r)
	case "precision-tcp":
		in.Passes = max(minPrecisionPasses, int(math.Round(seconds/precisionPassS)))
		in.Runs, err = precisionSequence(r)
	case "serve-mixed":
		in.Rate = serveRate
		for i := 0; i < serveHot && err == nil; i++ {
			var hot runInput
			hot, err = missInput(r, fmt.Sprintf("hot-%d", i), "hit")
			in.Hot = append(in.Hot, hot)
		}
		for w := 0; w < windows && err == nil; w++ {
			var sched []arrival
			sched, err = schedule(xrand.NewStream(seed, uint64(100+w)), in.Hot, seconds)
			in.Windows = append(in.Windows, sched)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// paperPoints is the paper's grid — three policies x HEP {0, 0.001,
// 0.01} x lambda {1e-6, 1e-5} — plus Weibull-TTF points from Fig. 5,
// which run the generic clock kernel.
func paperPoints(r *xrand.Source) ([]runInput, error) {
	var pts []runInput
	for _, lambda := range []float64{1e-6, 1e-5} {
		for _, pol := range []sim.Policy{sim.Conventional, sim.AutoFailover, sim.DualParity} {
			for _, hep := range []float64{0, 0.001, 0.01} {
				p := sim.PaperDefaults(4, lambda, hep)
				p.Policy = pol
				in, err := newRunInput(fmt.Sprintf("%s l=%g hep=%g", pol, lambda, hep), "memoryless", p,
					sim.Options{Iterations: paperIters, MissionTime: mission, Seed: r.Uint64()})
				if err != nil {
					return nil, err
				}
				pts = append(pts, in)
			}
		}
	}
	for _, pr := range []struct{ rate, beta float64 }{{1.25e-6, 1.09}, {2.17e-6, 1.12}, {7.96e-6, 1.21}} {
		p := sim.PaperDefaults(4, pr.rate, 0.01)
		p.TTF = dist.WeibullFromMeanRate(pr.rate, pr.beta)
		in, err := newRunInput(fmt.Sprintf("weibull l=%g beta=%g", pr.rate, pr.beta), "generic", p,
			sim.Options{Iterations: weibullIters, MissionTime: mission, Seed: r.Uint64()})
		if err != nil {
			return nil, err
		}
		pts = append(pts, in)
	}
	return pts, nil
}

// precisionSequence alternates two unbiased HEP>0 runs at a 2e-8
// target with one failure-biased HEP=0 run at a 1e-9 target.
func precisionSequence(r *xrand.Source) ([]runInput, error) {
	var runs []runInput
	for i := 0; i < precisionRuns; i++ {
		var (
			in  runInput
			err error
		)
		// The kernel is given resolved, as availserve resolves it before
		// dispatch, so job fingerprints match the request's.
		o := sim.Options{Iterations: 256, MaxIters: 1 << 22, MissionTime: mission, Seed: r.Uint64(), Kernel: sim.KernelMemoryless}
		if i%3 == 2 {
			p := sim.PaperDefaults(4, 1e-6, 0)
			if (i/3)%2 == 1 {
				p.Policy = sim.AutoFailover
			}
			o.TargetHalfWidth, o.Bias = 1e-9, sim.BiasAuto
			in, err = newRunInput(fmt.Sprintf("%s hep=0 bias=auto", p.Policy), "bias", p, o)
		} else {
			o.TargetHalfWidth = 2e-8
			in, err = newRunInput("conventional hep=0.001", "unbiased", sim.PaperDefaults(4, 1e-6, 0.001), o)
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, in)
	}
	return runs, nil
}

// missInput is a small fixed-N run with a fresh seed.
func missInput(r *xrand.Source, label, class string) (runInput, error) {
	return newRunInput(label, class, sim.PaperDefaults(4, 1e-6, 0.01),
		sim.Options{Iterations: missIters, MissionTime: mission, Seed: r.Uint64(), Kernel: sim.KernelMemoryless})
}

// streamInput is an adaptive run served as a progress stream: a
// failure-biased HEP=0 run at a 2e-10 target, which keeps the same
// three cells on almost every seed, so its cost barely depends on the
// seed.
func streamInput(r *xrand.Source, label string) (runInput, error) {
	return newRunInput(label, "stream", sim.PaperDefaults(4, 1e-6, 0), sim.Options{
		Iterations: 256, MaxIters: 1 << 22, MissionTime: mission, Seed: r.Uint64(),
		Kernel: sim.KernelMemoryless, TargetHalfWidth: 2e-10, Bias: sim.BiasAuto,
	})
}

// schedule draws one window of open-loop arrivals: a Poisson process of
// serveRate conditioned on its count (arrival times are then uniform over
// the window), each arrival a cache hit (30%), a fresh small miss (40%),
// a near-simultaneous duplicate pair of one fresh miss (10%), or a fresh
// adaptive run streamed with ?stream=1 (20%).
func schedule(r *xrand.Source, hot []runInput, seconds float64) ([]arrival, error) {
	n := int(math.Round(serveRate * seconds))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	var out []arrival
	for i, t := range at {
		label := fmt.Sprintf("req-%d", i)
		u := r.Float64()
		switch {
		case u < 0.3:
			out = append(out, arrival{At: t, Run: hot[r.Intn(len(hot))]})
		case u < 0.7:
			in, err := missInput(r, label, "miss")
			if err != nil {
				return nil, err
			}
			out = append(out, arrival{At: t, Run: in})
		case u < 0.8:
			in, err := missInput(r, label, "dup")
			if err != nil {
				return nil, err
			}
			out = append(out, arrival{At: t, Run: in}, arrival{At: t, Run: in})
		default:
			in, err := streamInput(r, label)
			if err != nil {
				return nil, err
			}
			out = append(out, arrival{At: t, Stream: true, Run: in})
		}
	}
	return out, nil
}
