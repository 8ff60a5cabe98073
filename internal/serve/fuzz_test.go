package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"herald/internal/ndjson"
	"herald/internal/shard"
)

// The request seeds are real bodies: README's /v1/run example, a sweep
// of two points, and a biased adaptive run with a histogram.
const (
	readmeRun = `{
  "params": {
    "disks": 4,
    "ttf":          {"family": "exponential",   "params": [1e-6]},
    "repair":       {"family": "deterministic", "params": [30]},
    "tape_restore": {"family": "deterministic", "params": [48]},
    "he_recovery":  {"family": "deterministic", "params": [8]},
    "hep": 0.01
  },
  "options": {"iterations": 1000000, "mission_time": 87600, "seed": 42,
              "target_half_width": 1e-5}
}`
	expParams  = `{"disks": 4, "ttf": {"family": "exponential", "params": [1e-4]}, "repair": {"family": "exponential", "params": [0.1]}, "tape_restore": {"family": "exponential", "params": [0.03]}, "he_recovery": {"family": "exponential", "params": [1]}, "hep": 0.02, "crash_rate": 0.01}`
	sweepOfTwo = `{"points": [
  {"params": ` + expParams + `, "options": {"iterations": 1000, "mission_time": 87600, "seed": 1}, "shards": 2},
  {"params": ` + expParams + `, "options": {"iterations": 1000, "mission_time": 87600, "seed": 2}}
]}`
	biasedAdaptive = `{"params": ` + expParams + `, "options": {"iterations": 2000, "mission_time": 87600, "seed": 3, "bias": "auto", "target_half_width": 1e-4, "max_iters": 4000, "histogram_bins": 8, "histogram_max_hours": 200}}`
)

// decodeBytes runs data through decodeBody as a request body of any size
// a server accepts.
func decodeBytes(data []byte, v any) *httpError {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	return decodeBody(httptest.NewRecorder(), r, 64*maxRunBody, v)
}

// FuzzRequestBody feeds arbitrary bytes through the request decoder as
// a /v1/run body and as a /v1/sweep body, and compiles every point.
// Nothing may panic, and a point that compiles must re-marshal, decode
// and compile to the same fingerprint.
func FuzzRequestBody(f *testing.F) {
	for _, seed := range []string{readmeRun, sweepOfTwo, biasedAdaptive} {
		f.Add([]byte(seed))
	}
	// The seeds decode and compile, so mutations start from bodies that
	// reach the round trip.
	var run RunRequest
	var sweep SweepRequest
	for _, seed := range []string{readmeRun, biasedAdaptive} {
		if herr := decodeBytes([]byte(seed), &run); herr != nil {
			f.Fatalf("seed run: %s", herr.msg)
		}
		if _, _, err := compile(&run); err != nil {
			f.Fatalf("seed run: %v", err)
		}
	}
	if herr := decodeBytes([]byte(sweepOfTwo), &sweep); herr != nil || len(sweep.Points) != 2 {
		f.Fatalf("seed sweep: %v", herr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var run RunRequest
		if decodeBytes(data, &run) == nil {
			roundTrip(t, &run)
		}
		var sweep SweepRequest
		if decodeBytes(data, &sweep) == nil {
			for i := range sweep.Points {
				roundTrip(t, &sweep.Points[i])
			}
		}
	})
}

// roundTrip checks that a request that compiles re-marshals, decodes
// and compiles to the same fingerprint.
func roundTrip(t *testing.T, req *RunRequest) {
	_, fp, err := compile(req)
	if err != nil {
		return
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("request compiles but does not marshal: %v", err)
	}
	var again RunRequest
	if herr := decodeBytes(b, &again); herr != nil {
		t.Fatalf("re-marshalled request %s does not decode: %s", b, herr.msg)
	}
	if _, fp2, err := compile(&again); err != nil || fp2 != fp {
		t.Fatalf("re-marshalled request %s compiles to %q, %v; want %q", b, fp2, err, fp)
	}
}

// snapEntries lists a table's cached entries from least to most
// recently used.
func snapEntries(c *resultCache) [][2]string {
	var out [][2]string
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		fl := el.Value.(*flight)
		out = append(out, [2]string{fl.fp, string(fl.body)})
	}
	return out
}

// FuzzSnapshot writes arbitrary bytes as a cache snapshot and loads it
// through the table's own loader. Nothing may panic, and whatever loads
// must snapshot and reload to the same entries.
func FuzzSnapshot(f *testing.F) {
	// Seed with a snapshot a server wrote for the sweep and the biased
	// run above.
	dir := f.TempDir()
	pool, err := shard.NewPool([]shard.Worker{shard.NewInProcessWorker("seed", 2)}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(Config{Pool: pool, CacheFile: filepath.Join(dir, "seed.ndjson")})
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []struct{ path, body string }{{"/v1/sweep", sweepOfTwo}, {"/v1/run", biasedAdaptive}} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader([]byte(req.body))))
		if rec.Code != http.StatusOK {
			f.Fatalf("seed %s: status %d: %s", req.path, rec.Code, rec.Body.Bytes())
		}
	}
	srv.Drain()
	pool.Close()
	seed, err := os.ReadFile(filepath.Join(dir, "seed.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// An entry whose checksum holds over a body the writer would encode
	// differently must not load: it would not survive the next snapshot.
	hdr, rest, _ := bytes.Cut(seed, []byte("\n"))
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	var frame struct{ Rec cacheSnapEntry }
	if err := json.Unmarshal(line, &frame); err != nil {
		f.Fatal(err)
	}
	e := frame.Rec
	spaced := bytes.Replace(e.Body, []byte(":"), []byte(": "), 1)
	f.Add(fmt.Appendf(nil, "%s\n%s", hdr, ndjson.Frame(fmt.Appendf(nil, `{"type":"entry","fp":%q,"body":%s}`, e.FP, spaced))))
	// Nor may a repeated entry: the table holds one flight per fingerprint.
	f.Add(fmt.Appendf(nil, "%s%s\n", seed, line))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := newResultCache(4, path, &bytes.Buffer{})
		if c.load() != nil {
			return
		}
		if len(c.byFP) != c.ll.Len() {
			t.Fatalf("the table maps %d fingerprints to %d entries", len(c.byFP), c.ll.Len())
		}
		first := snapEntries(c)
		c.snapshotNow()
		again := newResultCache(4, path, &bytes.Buffer{})
		if err := again.load(); err != nil {
			t.Fatalf("a snapshot of what loaded does not load: %v", err)
		}
		if got := snapEntries(again); !reflect.DeepEqual(got, first) {
			t.Fatalf("reload changed the entries:\n got %q\nwant %q", got, first)
		}
	})
}
