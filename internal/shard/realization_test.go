package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herald/internal/ndjson"
	"herald/internal/sim"
)

// preRealizationFingerprint transcribes RunFingerprint as builds of
// realization 1 computed it, before the domain label carried
// sim.Realization.
func preRealizationFingerprint(p WireParams, o sim.Options) string {
	o.Workers = 0
	if o.Confidence == 0 {
		o.Confidence = 0.99
	}
	if o.Bias == 1 {
		o.Bias = 0
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, "herald-run-fp-v1\n")
	enc := json.NewEncoder(h)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCheckpointOfAnotherRealizationRefused pins what the realization
// in RunFingerprint buys a checkpoint: a file a realization-1 build
// wrote binds the pre-bump fingerprint, so resuming it fails with the
// different-run error and leaves the file as it was, instead of folding
// one realization's partials into another's Summary. The same file
// bound to this build's fingerprint resumes.
func TestCheckpointOfAnotherRealizationRefused(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	wire, err := EncodeParams(p)
	if err != nil {
		t.Fatal(err)
	}
	old := preRealizationFingerprint(wire, o)
	if old != "1d7f75bf838b0c5f" {
		t.Fatalf("the transcription gives %s, not realization 1's pinned 1d7f75bf838b0c5f", old)
	}
	parts, err := sim.RunRange(p, o, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	write := func(path, fp string) []byte {
		t.Helper()
		hdr, err := json.Marshal(checkpointHeader{Type: "header", Fingerprint: fp, Iterations: o.Iterations, Seed: o.Seed})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := json.Marshal(checkpointRecord{Type: "shard", Partials: parts})
		if err != nil {
			t.Fatal(err)
		}
		b := append(append(hdr, '\n'), ndjson.Frame(rec)...)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return b
	}
	resume := func(path string) (sim.Summary, Stats, error) {
		return runStats(runCfg{Params: p, Options: o, Shards: 4, Checkpoint: path,
			Workers: []Worker{NewInProcessWorker("w", 1)}})
	}

	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.ckpt")
	before := write(stale, old)
	if _, _, err := resume(stale); err == nil || !strings.Contains(err.Error(), "belongs to a different run") {
		t.Fatalf("a realization-1 checkpoint resumed: err %v, want the different-run refusal", err)
	}
	if after, err := os.ReadFile(stale); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the refused checkpoint was rewritten (err %v)", err)
	}

	fp, err := fingerprintOf(p, o)
	if err != nil {
		t.Fatal(err)
	}
	current := filepath.Join(dir, "current.ckpt")
	write(current, fp)
	got, st, err := resume(current)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCheckpoint != 1 || !bytes.Equal(summaryBytes(t, got), summaryBytes(t, base)) {
		t.Errorf("this realization's checkpoint restored %d ranges, want 1 and the single-process Summary", st.FromCheckpoint)
	}
}
