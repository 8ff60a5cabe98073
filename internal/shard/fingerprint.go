package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

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
// The string is stable across processes, machines and repo versions
// (pinned by a test); changing what it covers requires bumping the
// domain label.
func RunFingerprint(p WireParams, o sim.Options) string {
	o.Workers = 0
	if o.Confidence == 0 {
		o.Confidence = 0.99 // the sim default; 0 and 0.99 are one run
	}
	if o.Bias == 1 {
		o.Bias = 0 // an explicit factor of 1 is off; one run either way
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, "herald-run-fp-v1\n")
	enc := json.NewEncoder(h)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	return fmt.Sprintf("%016x", h.Sum64())
}
