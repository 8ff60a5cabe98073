// Package serve exposes the availability simulator as a long-lived
// HTTP/JSON service: one shared shard pool executes every request,
// results are cached under the canonical run fingerprint, concurrent
// identical requests coalesce into a single run, and adaptive runs can
// stream their convergence progress to the client.
//
// Because simulation results are bit-identical for equal fingerprints
// regardless of worker or shard count (see shard.RunFingerprint), the
// cache is exact: a hit returns the very bytes a fresh run would have
// produced.
package serve

import (
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

// resultCache is an LRU map from run fingerprint to the marshalled
// Summary bytes of the finished run. Entries are immutable once
// inserted; the stored slice is shared, never mutated.
//
// When a snapshot path is configured the cache persists across process
// restarts: the whole LRU is written as an ndjson snapshot (header line
// then one entry per line, least- to most-recently-used, so a reload
// reconstructs the recency order) every snapEvery insertions and on
// drain, as an internal/ndjson log — written to a temp file, fsynced
// and renamed — so a crash mid-snapshot leaves the previous snapshot
// intact and a torn tail only costs the entries behind it.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	byFP      map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	inserts   uint64
	loaded    int

	path      string
	snapEvery int
	sinceSnap int
	snapping  bool
	logw      io.Writer

	snapMu sync.Mutex // serializes snapshot writers
}

type cacheEntry struct {
	fp   string
	body []byte
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:  capacity,
		ll:   list.New(),
		byFP: make(map[string]*list.Element),
	}
}

// get returns the cached summary bytes for fp, or nil on a miss.
func (c *resultCache) get(fp string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byFP[fp]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body
}

// put inserts (or refreshes) fp's summary bytes, evicting the least
// recently used entry when over capacity. With persistence configured,
// every snapEvery-th insertion triggers an asynchronous snapshot.
func (c *resultCache) put(fp string, body []byte) {
	c.mu.Lock()
	if el, ok := c.byFP[fp]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		c.mu.Unlock()
		return
	}
	c.inserts++
	c.byFP[fp] = c.ll.PushFront(&cacheEntry{fp: fp, body: body})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byFP, last.Value.(*cacheEntry).fp)
		c.evictions++
	}
	snap := false
	if c.path != "" {
		c.sinceSnap++
		if c.sinceSnap >= c.snapEvery && !c.snapping {
			c.snapping = true
			c.sinceSnap = 0
			snap = true
		}
	}
	c.mu.Unlock()
	if snap {
		go func() {
			c.snapshotNow()
			c.mu.Lock()
			c.snapping = false
			c.mu.Unlock()
		}()
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

// persistTo arms persistence: snapshots go to path every snapEvery
// insertions (and on snapshotNow), and an existing snapshot is loaded
// immediately. Loading failures other than a missing file are returned;
// a torn tail is dropped with a warning, keeping everything before it.
func (c *resultCache) persistTo(path string, snapEvery int, logw io.Writer) error {
	if snapEvery <= 0 {
		snapEvery = 32
	}
	if logw == nil {
		logw = io.Discard
	}
	c.mu.Lock()
	c.path = path
	c.snapEvery = snapEvery
	c.logw = logw
	c.mu.Unlock()
	return c.load()
}

// load replays an existing snapshot into the (empty) cache. Entries
// are inserted in file order — LRU first — so the reloaded cache has
// the same eviction order the old process had.
func (c *resultCache) load() error {
	// Replay must not trigger a snapshot of the file being read;
	// holding the snapping latch suppresses the insertion trigger.
	c.mu.Lock()
	c.snapping = true
	c.mu.Unlock()
	n := 0
	torn, err := ndjson.Scan(c.path, func(h *cacheSnapHeader) error {
		if h.Type != "header" || h.Format != cacheSnapFormat {
			return errors.New("malformed header")
		}
		return nil
	}, func(e *cacheSnapEntry) bool {
		if e.Type != "entry" || e.FP == "" || len(e.Body) == 0 {
			return false
		}
		c.put(e.FP, []byte(e.Body))
		n++
		return true
	})
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, ndjson.ErrEmpty) {
		err = nil
	}
	if torn > 0 {
		// A torn tail from a crash mid-write: keep what precedes it.
		fmt.Fprintf(c.logw, "serve: cache snapshot %s: dropping torn entry at line %d\n", c.path, torn)
	}
	c.mu.Lock()
	c.loaded = n
	// Replaying the snapshot must not count as fresh insertions, or a
	// reload would immediately re-trigger a snapshot of itself.
	c.inserts = 0
	c.misses = 0
	c.sinceSnap = 0
	c.snapping = false
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: cache snapshot %s: %w", c.path, err)
	}
	return nil
}

// snapshotNow writes the full cache to the snapshot file (temp file,
// fsync, rename), serializing concurrent writers. A cache without a
// configured path is a no-op.
func (c *resultCache) snapshotNow() {
	c.mu.Lock()
	path, logw := c.path, c.logw
	entries := make([]cacheSnapEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() { // LRU → MRU
		e := el.Value.(*cacheEntry)
		entries = append(entries, cacheSnapEntry{Type: "entry", FP: e.fp, Body: json.RawMessage(e.body)})
	}
	c.mu.Unlock()
	if path == "" {
		return
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	hdr := cacheSnapHeader{Type: "header", Format: cacheSnapFormat, Version: 1}
	if err := ndjson.Replace(path, hdr, entries); err != nil {
		fmt.Fprintf(logw, "serve: cache snapshot %s: %v\n", path, err)
	}
}
