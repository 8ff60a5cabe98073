package shard

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"herald/internal/dist"
	"herald/internal/sim"
)

// TestMain lets the test binary double as a shard worker process, so
// SpawnLocal-based tests exercise the real os/exec path.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

func testParams(pol sim.Policy) sim.ArrayParams {
	p := sim.PaperDefaults(4, 1e-4, 0.02)
	p.Policy = pol
	return p
}

func testOptions() sim.Options {
	return sim.Options{Iterations: 2000, MissionTime: 2e5, Seed: 20170327, Workers: 2}
}

// runCfg is one run plus the workers and log it executes on, for tests
// that drive a single run through RunPipeline.
type runCfg struct {
	Params     sim.ArrayParams
	Options    sim.Options
	Shards     int
	Checkpoint string
	Workers    []Worker
	Log        io.Writer
}

// runStats executes cfg as a one-run pipeline.
func runStats(cfg runCfg) (sim.Summary, Stats, error) {
	spec := RunSpec{Params: cfg.Params, Options: cfg.Options, Shards: cfg.Shards, Checkpoint: cfg.Checkpoint}
	res, err := RunPipeline([]RunSpec{spec}, cfg.Workers, &PoolOptions{Log: cfg.Log})
	return res[0].Summary, res[0].Stats, err
}

// retrying returns nc with supervised reconnects on, logging to logw.
func retrying(nc NetConfig, logw io.Writer) NetConfig {
	nc.Retry = true
	nc.Log = logw
	return nc
}

// fingerprintOf is RunFingerprint of in-memory parameters.
func fingerprintOf(p sim.ArrayParams, o sim.Options) (string, error) {
	w, err := EncodeParams(p)
	if err != nil {
		return "", err
	}
	return RunFingerprint(w, o), nil
}

// summaryBytes renders a Summary to its canonical JSON for
// byte-identity comparisons.
func summaryBytes(t *testing.T, s sim.Summary) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedMatchesSingleProcessAllPolicies is the determinism
// contract: for every policy and a spread of shard and worker counts,
// the sharded Summary must be byte-identical to the single-process
// sim.Run baseline.
func TestShardedMatchesSingleProcessAllPolicies(t *testing.T) {
	for _, pol := range []sim.Policy{sim.Conventional, sim.AutoFailover, sim.DualParity} {
		p := testParams(pol)
		o := testOptions()
		base, err := sim.Run(p, o)
		if err != nil {
			t.Fatalf("%v: baseline: %v", pol, err)
		}
		want := summaryBytes(t, base)
		for _, cfg := range []struct{ shards, workers int }{
			{1, 1}, {2, 2}, {5, 3}, {31, 4}, {1000, 2},
		} {
			workers := make([]Worker, cfg.workers)
			for i := range workers {
				workers[i] = NewInProcessWorker("w", 1)
			}
			got, st, err := runStats(runCfg{Params: p, Options: o, Shards: cfg.shards, Workers: workers})
			if err != nil {
				t.Fatalf("%v shards=%d workers=%d: %v", pol, cfg.shards, cfg.workers, err)
			}
			if g := summaryBytes(t, got); string(g) != string(want) {
				t.Errorf("%v shards=%d workers=%d: summary diverged\n got %s\nwant %s",
					pol, cfg.shards, cfg.workers, g, want)
			}
			if st.Computed != st.Shards {
				t.Errorf("%v shards=%d: computed %d of %d shards", pol, cfg.shards, st.Computed, st.Shards)
			}
		}
	}
}

// TestShardedHistogramMatches extends byte-identity to the downtime
// histogram path.
func TestShardedHistogramMatches(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	o.HistogramBins = 32
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runStats(runCfg{Params: p, Options: o, Shards: 4,
		Workers: []Worker{NewInProcessWorker("a", 1), NewInProcessWorker("b", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("histogram summary diverged from single-process baseline")
	}
}

// TestProcessWorkersMatchSingleProcess runs real sibling worker
// processes (the test binary re-executed via SpawnLocal) and checks
// byte-identity against sim.Run.
func TestProcessWorkersMatchSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	p := testParams(sim.Conventional)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := SpawnLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	got, _, err := runStats(runCfg{Params: p, Options: o, Shards: 4, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("process-sharded summary diverged from single-process baseline")
	}
}

// TestTCPWorkerMatchesSingleProcess attaches a worker over a real TCP
// connection (the remote-machine path) and checks byte-identity.
func TestTCPWorkerMatchesSingleProcess(t *testing.T) {
	addr := make(chan net.Addr, 1)
	go func() {
		_ = ListenAndServeNetStop("127.0.0.1:0", NetConfig{}, func(a net.Addr) { addr <- a }, nil)
	}()
	w, err := DialNet((<-addr).String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	p := testParams(sim.AutoFailover)
	o := testOptions()
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runStats(runCfg{Params: p, Options: o, Shards: 3, Workers: []Worker{w}})
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, got)) != string(summaryBytes(t, base)) {
		t.Error("TCP-sharded summary diverged from single-process baseline")
	}
}

// TestPartition pins a fixed-N run's claims: claimRange hands out
// guided batches off the cursor that are contiguous, cell-aligned,
// never grow, and tile [0, n) exactly, whatever the divisor.
func TestPartition(t *testing.T) {
	for _, n := range []int{1, 63, 64, 2000, 1_000_000} {
		for _, s := range []int{1, 2, 7, 256, 100000} {
			r, err := newRunState(0, &RunSpec{Params: testParams(sim.Conventional),
				Options: sim.Options{Iterations: n, MissionTime: 2e5, Seed: 1}}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cs := sim.CellSize(n)
			cursor, last, claims := 0, n, 0
			for rg, ok := r.claimRange(s); ok; rg, ok = r.claimRange(s) {
				if rg.Start != cursor || rg.End <= rg.Start {
					t.Fatalf("n=%d shards=%d: bad range %+v at cursor %d", n, s, rg, cursor)
				}
				if rg.Start%cs != 0 || (rg.End%cs != 0 && rg.End != n) {
					t.Fatalf("n=%d shards=%d: range %+v not cell-aligned (cell %d)", n, s, rg, cs)
				}
				if rg.Len() > last {
					t.Fatalf("n=%d shards=%d: range %+v grew past the previous claim's %d iterations", n, s, rg, last)
				}
				cursor, last = rg.End, rg.Len()
				claims++
			}
			if cursor != n {
				t.Fatalf("n=%d shards=%d: claims end at %d", n, s, cursor)
			}
			if s == 1 && claims != 1 {
				t.Errorf("n=%d: one shard claimed the run in %d ranges, want 1", n, claims)
			}
			if r.stats.Waves != claims || r.stats.Shards != claims {
				t.Errorf("n=%d shards=%d: stats count %d waves, %d shards; want %d claims",
					n, s, r.stats.Waves, r.stats.Shards, claims)
			}
		}
	}
}

// TestWireParamsRoundTrip pins the parameter codec across policies and
// non-exponential laws.
func TestWireParamsRoundTrip(t *testing.T) {
	p := testParams(sim.AutoFailover)
	p.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
	p.Repair = dist.LognormalFromMeanMedian(10, 6)
	p.HERecovery = dist.NewHyperExponential([]float64{0.8, 0.2}, []float64{2, 0.1})
	w, err := EncodeParams(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireParams
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	q, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("decoded params invalid: %v", err)
	}
	if q.TTF.String() != p.TTF.String() || q.Repair.String() != p.Repair.String() ||
		q.HERecovery.String() != p.HERecovery.String() {
		t.Errorf("laws diverged after round-trip:\n%v\n%v", q, p)
	}
	if q.Disks != p.Disks || q.HEP != p.HEP || q.Policy != p.Policy || q.CrashRate != p.CrashRate {
		t.Errorf("scalars diverged after round-trip:\n%+v\n%+v", q, p)
	}

	// A sharded run under the round-tripped params must agree exactly
	// with the original (the codec rebuilds derived caches).
	o := sim.Options{Iterations: 500, MissionTime: 1e5, Seed: 3, Workers: 2}
	a, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(q, o)
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryBytes(t, a)) != string(summaryBytes(t, b)) {
		t.Error("round-tripped params changed the simulation")
	}
}

// TestShardedBiasedMatchesSingleProcess extends the byte-identity
// contract to importance-sampled runs: the weighted accumulators ride
// the shard wire codec and checkpoint path, so a biased sharded
// Summary must equal the single-process one byte for byte, for every
// shard/worker partition.
func TestShardedBiasedMatchesSingleProcess(t *testing.T) {
	for _, pol := range []sim.Policy{sim.Conventional, sim.AutoFailover, sim.DualParity} {
		p := testParams(pol)
		o := testOptions()
		o.Bias = sim.BiasAuto
		base, err := sim.Run(p, o)
		if err != nil {
			t.Fatalf("%v: baseline: %v", pol, err)
		}
		if base.Bias <= 0 || !(base.ESS > 0) {
			t.Fatalf("%v: baseline not weighted: factor %v, ESS %v", pol, base.Bias, base.ESS)
		}
		want := summaryBytes(t, base)
		for _, cfg := range []struct{ shards, workers int }{
			{2, 2}, {7, 3}, {64, 4},
		} {
			workers := make([]Worker, cfg.workers)
			for i := range workers {
				workers[i] = NewInProcessWorker("w", 1)
			}
			got, _, err := runStats(runCfg{Params: p, Options: o, Shards: cfg.shards, Workers: workers})
			if err != nil {
				t.Fatalf("%v shards=%d workers=%d: %v", pol, cfg.shards, cfg.workers, err)
			}
			if g := summaryBytes(t, got); string(g) != string(want) {
				t.Errorf("%v shards=%d workers=%d: biased summary diverged\n got %s\nwant %s",
					pol, cfg.shards, cfg.workers, g, want)
			}
		}
	}
}

// TestIdentifyNamesBias pins Identify's refusal of a biased run whose
// kernel resolves generic: the message names the factor as the user
// gave it, auto for the auto sentinel.
func TestIdentifyNamesBias(t *testing.T) {
	p := testParams(sim.Conventional)
	p.TTF = dist.WeibullFromMeanRate(1e-4, 1.48)
	for _, tc := range []struct {
		bias float64
		want string
	}{{sim.BiasAuto, "bias auto requires"}, {4, "bias 4 requires"}} {
		o := testOptions()
		o.Bias = tc.bias
		if _, _, err := Identify(p, o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bias %v on a generic run: error %v, want it to say %q", tc.bias, err, tc.want)
		}
	}
}
