package serve_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"herald/internal/ndjson"
	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
)

// labelledFingerprint transcribes shard.RunFingerprint with its domain
// label given: this build's label reproduces it, and realization 1's
// label, "herald-run-fp-v1", gives the key a pre-bump build cached a
// run under.
func labelledFingerprint(p shard.WireParams, o sim.Options, label string) string {
	o.Workers = 0
	if o.Confidence == 0 {
		o.Confidence = 0.99
	}
	if o.Bias == 1 {
		o.Bias = 0
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, label+"\n")
	enc := json.NewEncoder(h)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSnapshotOfAnotherRealizationNeverServed pins what the realization
// in RunFingerprint buys the result cache: a snapshot entry a
// realization-1 build wrote is keyed by the pre-bump fingerprint, so it
// loads, but no request of this build maps to it. A restarted server
// whose pool can compute nothing must therefore fail the request, not
// answer it with the stale bytes.
func TestSnapshotOfAnotherRealizationNeverServed(t *testing.T) {
	body := wireRequest(t, testParams, runOpts(testOptions), 4)
	hs, _, _ := newTestServer(t, serve.Config{})
	resp, rr := postRun(t, hs.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d", resp.StatusCode)
	}
	wire, err := shard.EncodeParams(testParams)
	if err != nil {
		t.Fatal(err)
	}
	o, fp, err := shard.Identify(testParams, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	current := labelledFingerprint(wire, o, fmt.Sprintf("herald-run-fp-v1 realization %d", sim.Realization))
	if fp != rr.Fingerprint || current != fp {
		t.Fatalf("served fingerprint %s, shard.Identify %s, transcription %s: want one key", rr.Fingerprint, fp, current)
	}
	old := labelledFingerprint(wire, o, "herald-run-fp-v1")

	cf := filepath.Join(t.TempDir(), "cache.ndjson")
	snap := fmt.Appendf(nil, "{\"type\":\"header\",\"format\":\"herald-result-cache\",\"v\":1}\n%s",
		ndjson.Frame(fmt.Appendf(nil, `{"type":"entry","fp":%q,"body":{"Availability":0.5}}`, old)))
	if err := os.WriteFile(cf, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	hs2, srv2, pool2 := startServer(t, serve.Config{CacheFile: cf}, failingWorker{})
	defer func() { hs2.Close(); srv2.Drain(); pool2.Close() }()
	if st := cacheStats(t, hs2.URL); st.Loaded != 1 {
		t.Fatalf("the realization-1 snapshot loaded %d entries, want its one well-formed entry", st.Loaded)
	}
	if resp, rr := postRun(t, hs2.URL, body); resp.StatusCode == http.StatusOK {
		t.Fatalf("served %s for a run only a realization-1 entry holds", rr.Summary)
	}
}
