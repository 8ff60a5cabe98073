// Package serve exposes the availability simulator as a long-lived
// HTTP/JSON service: one shared shard pool executes every request, one
// table maps each canonical run fingerprint to its flight — the run
// while it executes, its cached result once it has finished — so
// identical requests share one run whenever they arrive, and adaptive
// runs can stream their convergence progress to the client.
//
// Because simulation results are bit-identical for equal fingerprints
// regardless of worker or shard count (see shard.RunFingerprint), the
// cache is exact: a hit returns the very bytes a fresh run would have
// produced.
package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"

	"herald/internal/ndjson"
)

// CacheStats is a point-in-time snapshot of the result cache,
// served by GET /v1/cache.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Inserts   uint64 `json:"inserts"`
	// Loaded counts entries restored from the snapshot file at boot.
	Loaded int `json:"loaded,omitempty"`
}

// resultCache is the one table of run identities: it maps each
// fingerprint to one flight, running until it finishes and the cached
// entry after that. Finished flights form an LRU of marshalled Summary
// bytes, shared and never mutated; a failed run leaves the table, so a
// retry runs afresh.
//
// When a snapshot path is configured the cache persists across process
// restarts: the whole LRU is written as an ndjson snapshot (header line
// then one entry per line, least- to most-recently-used, so a reload
// reconstructs the recency order) every cacheSnapEvery insertions and
// on drain, as an internal/ndjson log — written to a temp file, fsynced
// and renamed — so a crash mid-snapshot leaves the previous snapshot
// intact. Each entry line carries the log's CRC-32C, and a torn or
// damaged line costs only the entries from it on.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List         // finished flights; front = most recently used
	byFP      map[string]*flight // running and finished flights
	hits      uint64
	misses    uint64
	evictions uint64
	inserts   uint64
	loaded    int

	path      string
	sinceSnap int
	snapping  bool
	logw      io.Writer

	snapMu sync.Mutex // serializes snapshot writers
}

// cacheSnapEvery is the insertion cadence of automatic snapshots.
const cacheSnapEvery = 32

// newResultCache builds an empty table; a non-empty path arms
// persistence (call load to restore an existing snapshot).
func newResultCache(capacity int, path string, logw io.Writer) *resultCache {
	return &resultCache{
		cap:  capacity,
		ll:   list.New(),
		byFP: make(map[string]*flight),
		path: path,
		logw: logw,
	}
}

// get is a request's first lookup of fp, counted as one hit or miss. It
// returns fp's flight, joined as lookup does (nil when there is none),
// and whether it is a hit: a finished run.
func (c *resultCache) get(fp string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fl, hit := c.lookup(fp)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return fl, hit
}

// lead returns fp's flight as get does, counting nothing, and creates
// one when there is none; led reports that the caller leads its run.
func (c *resultCache) lead(fp string) (fl *flight, hit, led bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if led = c.byFP[fp] == nil; led {
		c.byFP[fp] = newFlight(fp)
	}
	fl, hit = c.lookup(fp)
	return fl, hit, led
}

// lookup returns fp's flight joined for the caller, who must leave it,
// and refreshes a hit's recency. The caller holds c.mu.
func (c *resultCache) lookup(fp string) (*flight, bool) {
	fl := c.byFP[fp]
	if fl == nil {
		return nil, false
	}
	fl.waiters.Add(1)
	if fl.el == nil {
		return fl, false
	}
	c.ll.MoveToFront(fl.el)
	return fl, true
}

// finish records fl's outcome under the table's lock, before any
// request can see fl as a hit, then releases its waiters. A success
// becomes the most recently used entry and, with persistence armed,
// every cacheSnapEvery-th success triggers an asynchronous snapshot; a
// failure leaves the table, so a retry runs afresh.
func (c *resultCache) finish(fl *flight, body []byte, err error) {
	c.mu.Lock()
	fl.body, fl.err = body, err
	snap := false
	if err != nil {
		delete(c.byFP, fl.fp)
	} else {
		c.inserts++
		c.add(fl)
		if c.path != "" {
			c.sinceSnap++
			if snap = c.sinceSnap >= cacheSnapEvery && !c.snapping; snap {
				c.snapping = true
				c.sinceSnap = 0
			}
		}
	}
	c.mu.Unlock()
	close(fl.done)
	if snap {
		go func() {
			c.snapshotNow()
			c.mu.Lock()
			c.snapping = false
			c.mu.Unlock()
		}()
	}
}

// add makes the finished fl the most recently used entry, evicting the
// least recently used past capacity. The caller holds c.mu.
func (c *resultCache) add(fl *flight) {
	fl.el = c.ll.PushFront(fl)
	c.byFP[fl.fp] = fl
	for c.ll.Len() > c.cap {
		old := c.ll.Remove(c.ll.Back()).(*flight)
		delete(c.byFP, old.fp)
		c.evictions++
	}
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Inserts:   c.inserts,
		Loaded:    c.loaded,
	}
}

// The snapshot is newline-delimited JSON: a header line binding the
// file to this format, then one line per entry, written least- to
// most-recently-used.

type cacheSnapHeader struct {
	Type    string `json:"type"` // "header"
	Format  string `json:"format"`
	Version int    `json:"v"`
}

type cacheSnapEntry struct {
	Type string          `json:"type"` // "entry"
	FP   string          `json:"fp"`
	Body json.RawMessage `json:"body"`
}

const cacheSnapFormat = "herald-result-cache"

// load replays an existing snapshot into the empty table. Entries go in
// as finished flights in file order — LRU first — so the reloaded cache
// has the eviction order the old process had; they count as neither
// insertions nor misses, so a reload never snapshots itself. Loading
// failures other than a missing file are returned. The first torn or
// damaged entry — one that fails its checksum, is not in the form the
// snapshot writes, or repeats a fingerprint — is dropped with a
// warning, along with the entries after it; so are all the entries of
// a snapshot written before entry lines were framed.
func (c *resultCache) load() error {
	torn, err := ndjson.Scan(c.path, func(h *cacheSnapHeader) error {
		if h.Type != "header" || h.Format != cacheSnapFormat {
			return errors.New("malformed header")
		}
		return nil
	}, func(e *cacheSnapEntry) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		// The writer re-encodes a body compact and HTML-escaped; a body in
		// any other form would not survive the next snapshot.
		canon, err := json.Marshal(e.Body)
		if err != nil || !bytes.Equal(canon, e.Body) || e.Type != "entry" || e.FP == "" || c.byFP[e.FP] != nil {
			return false
		}
		fl := newFlight(e.FP)
		fl.body = e.Body
		close(fl.done)
		c.add(fl)
		c.loaded++
		return true
	})
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, ndjson.ErrEmpty) {
		err = nil
	}
	if torn > 0 {
		fmt.Fprintf(c.logw, "serve: cache snapshot %s: dropping torn or damaged entry at line %d and the entries after it\n", c.path, torn)
	}
	if err != nil {
		return fmt.Errorf("serve: cache snapshot %s: %w", c.path, err)
	}
	return nil
}

// snapshotNow writes the full cache to the snapshot file (temp file,
// fsync, rename), serializing concurrent writers. A cache without a
// configured path is a no-op.
func (c *resultCache) snapshotNow() {
	if c.path == "" {
		return
	}
	c.mu.Lock()
	entries := make([]cacheSnapEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() { // LRU → MRU
		fl := el.Value.(*flight)
		entries = append(entries, cacheSnapEntry{Type: "entry", FP: fl.fp, Body: fl.body})
	}
	c.mu.Unlock()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	hdr := cacheSnapHeader{Type: "header", Format: cacheSnapFormat, Version: 1}
	if err := ndjson.Replace(c.path, hdr, entries); err != nil {
		fmt.Fprintf(c.logw, "serve: cache snapshot %s: %v\n", c.path, err)
	}
}
