package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"herald/internal/sim"
)

// RunFingerprint canonically identifies a run's *result*: every
// result-affecting input — the wire-encoded parameters and the options,
// with schedule-only knobs (Workers) zeroed and defaults normalized —
// hashed with FNV-1a over canonical JSON. Because execution is
// bit-identical across worker and shard counts, two runs with equal
// fingerprints produce byte-identical Summaries — an exact cache key,
// not an approximate one. A checkpoint binds this fingerprint alone:
// its records are canonical cells, whoever claimed them.
//
// The domain label carries sim.Realization, so a build whose kernels
// realize runs differently fingerprints every run differently, and
// checkpoints and cache entries of another realization never match.
// Otherwise the string is stable across processes, machines and repo
// versions (pinned by a test); changing what it covers requires
// bumping the label.
func RunFingerprint(p WireParams, o sim.Options) string {
	o.Workers = 0
	if o.Confidence == 0 {
		o.Confidence = 0.99 // the sim default; 0 and 0.99 are one run
	}
	if o.Bias == 1 {
		o.Bias = 0 // an explicit factor of 1 is off; one run either way
	}
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "herald-run-fp-v1 realization %d\n", sim.Realization)
	enc := json.NewEncoder(h)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Identify resolves a run to the options it executes with and their
// RunFingerprint: it validates p and o, resolves o.Kernel to the
// concrete kernel (sim.ResolveKernel), and refuses a biased run whose
// kernel resolves generic. Every result key is computed here —
// availserve's cache, herald.SimFingerprint and sweep rows — so an
// auto-kernel run and the same run with its resolved kernel share one
// fingerprint.
func Identify(p sim.ArrayParams, o sim.Options) (sim.Options, string, error) {
	if err := p.Validate(); err != nil {
		return sim.Options{}, "", err
	}
	if err := o.Validate(); err != nil {
		return sim.Options{}, "", err
	}
	k, err := sim.ResolveKernel(p, o.Kernel)
	if err != nil {
		return sim.Options{}, "", err
	}
	if o.Biased() && k != sim.KernelMemoryless {
		bias := fmt.Sprint(o.Bias)
		if o.Bias == sim.BiasAuto {
			bias = "auto"
		}
		return sim.Options{}, "", fmt.Errorf("shard: bias %s requires the memoryless kernel (configuration resolved %v)", bias, k)
	}
	o.Kernel = k
	w, err := EncodeParams(p)
	if err != nil {
		return sim.Options{}, "", err
	}
	return o, RunFingerprint(w, o), nil
}
