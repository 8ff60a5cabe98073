package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"herald/internal/ndjson"
	"herald/internal/serve"
	"herald/internal/shard"
	"herald/internal/sim"
)

// fingerprintInput transcribes the bytes shard.RunFingerprint hashes,
// with the domain label given: this build's label, hashed with
// SHA-256, reproduces the fingerprint, and realization 1's label,
// "herald-run-fp-v1", hashed with 64-bit FNV-1a, gives the key a
// pre-bump build cached a run under.
func fingerprintInput(p shard.WireParams, o sim.Options, label string) []byte {
	o.Workers = 0
	if o.Confidence == 0 {
		o.Confidence = 0.99
	}
	if o.Bias == 1 {
		o.Bias = 0
	}
	var b bytes.Buffer
	b.WriteString(label + "\n")
	enc := json.NewEncoder(&b)
	_ = enc.Encode(p)
	_ = enc.Encode(o)
	return b.Bytes()
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
	sum := sha256.Sum256(fingerprintInput(wire, o, fmt.Sprintf("herald-run-fp-v2 realization %d", sim.Realization)))
	current := hex.EncodeToString(sum[:16])
	if fp != rr.Fingerprint || current != fp {
		t.Fatalf("served fingerprint %s, shard.Identify %s, transcription %s: want one key", rr.Fingerprint, fp, current)
	}
	h := fnv.New64a()
	_, _ = h.Write(fingerprintInput(wire, o, "herald-run-fp-v1"))
	old := fmt.Sprintf("%016x", h.Sum64())

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
