package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"herald/internal/sim"
)

// RunFingerprint canonically identifies a run's *result*: every
// result-affecting input — the wire-encoded parameters and the options,
// with schedule-only knobs (Workers) zeroed and defaults normalized —
// hashed with SHA-256 over canonical JSON and truncated to 128 bits,
// 32 lowercase hex digits. Because execution is bit-identical across
// worker and shard counts, two runs with equal fingerprints produce
// byte-identical Summaries — an exact cache key, not an approximate
// one: a request crafted to take over another's cache entry needs a
// 128-bit second preimage. A checkpoint binds this fingerprint alone:
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
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "herald-run-fp-v2 realization %d\n", sim.Realization)
	enc := json.NewEncoder(h)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Identify resolves a run to the options it executes with
// (sim.Resolve: validated, kernel resolved, a biased generic run
// refused) and their RunFingerprint. Every result key is computed here
// — availserve's cache, herald.SimFingerprint and sweep rows — so an
// auto-kernel run and the same run with its resolved kernel share one
// fingerprint.
func Identify(p sim.ArrayParams, o sim.Options) (sim.Options, string, error) {
	o, err := sim.Resolve(p, o)
	if err != nil {
		return sim.Options{}, "", err
	}
	w, err := EncodeParams(p)
	if err != nil {
		return sim.Options{}, "", err
	}
	return o, RunFingerprint(w, o), nil
}
