package shard

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"

	"herald/internal/ndjson"
	"herald/internal/sim"
)

// The checkpoint is an internal/ndjson log. Line one is a header
// binding the file to a run (its RunFingerprint and shard count); each
// following line records one completed shard with its cell partials.
// Appending is the only write mode during a run, so a crash can at
// worst tear the final line — the loader drops an unparsable or
// invalid tail and the torn shard is simply recomputed. On resume the
// surviving records are compacted into a fresh file first, so the log
// never accretes torn garbage between lines.

type checkpointHeader struct {
	Type        string `json:"type"` // "header"
	Fingerprint string `json:"fingerprint"`
	Iterations  int    `json:"iterations"`
	Seed        uint64 `json:"seed"`
	Shards      int    `json:"shards"`
}

type checkpointRecord struct {
	Type     string        `json:"type"` // "shard"
	ID       int           `json:"id"`
	Partials []sim.Partial `json:"partials"`
}

// checkpoint is an open append-mode checkpoint log. Its methods accept
// a nil receiver (a run without a checkpoint).
type checkpoint struct {
	log *ndjson.Appender
}

// record appends one completed shard and flushes it to disk.
func (c *checkpoint) record(id int, parts []sim.Partial) error {
	if c == nil {
		return nil
	}
	if err := c.log.Append(checkpointRecord{Type: "shard", ID: id, Partials: parts}); err != nil {
		return fmt.Errorf("shard: checkpoint write: %w", err)
	}
	return nil
}

func (c *checkpoint) close() error {
	if c == nil {
		return nil
	}
	return c.log.Close()
}

// loadCheckpoint reads an existing checkpoint file, returning the
// completed shards whose partials pass sim.CheckPartials for a run of p
// under the job options o. Torn trailing data is dropped with a warning
// to logw. A header for another run — a different fingerprint or shard
// count — is an error: the file must not be silently clobbered.
func loadCheckpoint(path, fp string, shards []sim.Range, p sim.ArrayParams, o sim.Options, logw io.Writer) (map[int][]sim.Partial, error) {
	done := make(map[int][]sim.Partial)
	torn, err := ndjson.Scan(path, func(h *checkpointHeader) error {
		if h.Type != "header" {
			return fmt.Errorf("malformed header")
		}
		if h.Fingerprint != fp || h.Shards != len(shards) {
			return fmt.Errorf("belongs to a different run (fingerprint %s over %d shards, want %s over %d)",
				h.Fingerprint, h.Shards, fp, len(shards))
		}
		return nil
	}, func(rec *checkpointRecord) bool {
		if rec.Type != "shard" {
			return false
		}
		if rec.ID < 0 || rec.ID >= len(shards) {
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping record for unknown shard %d\n", path, rec.ID)
		} else if err := sim.CheckPartials(p, o, shards[rec.ID].Start, shards[rec.ID].End, rec.Partials); err != nil {
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping invalid record for shard %d: %v\n", path, rec.ID, err)
		} else if _, dup := done[rec.ID]; !dup {
			done[rec.ID] = rec.Partials
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", path, err)
	}
	if torn > 0 {
		// Everything before a torn tail is intact; the rest recomputes.
		fmt.Fprintf(logw, "shard: checkpoint %s: dropping torn record at line %d\n", path, torn)
	}
	return done, nil
}

// openCheckpoint prepares the checkpoint at path for a run: loading
// completed shards from an existing file and compacting the survivors
// into a fresh log, or creating a new log when none exists. fp is the
// run's RunFingerprint, and p and o its parameters and job options. It
// returns the completed shards and the open append handle.
func openCheckpoint(path, fp string, shards []sim.Range, p sim.ArrayParams, o sim.Options, logw io.Writer) (map[int][]sim.Partial, *checkpoint, error) {
	done, err := loadCheckpoint(path, fp, shards, p, o, logw)
	if errors.Is(err, fs.ErrNotExist) {
		done, err = nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	// Rewrite the log from the validated records, so a previous torn
	// tail never corrupts subsequent appends.
	ids := make([]int, 0, len(done))
	for id := range done {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	recs := make([]checkpointRecord, len(ids))
	for i, id := range ids {
		recs[i] = checkpointRecord{Type: "shard", ID: id, Partials: done[id]}
	}
	hdr := checkpointHeader{Type: "header", Fingerprint: fp, Iterations: shardsEnd(shards), Seed: o.Seed, Shards: len(shards)}
	if err := ndjson.Replace(path, hdr, recs); err != nil {
		return nil, nil, err
	}
	log, err := ndjson.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	return done, &checkpoint{log: log}, nil
}

// shardsEnd returns the end of the last shard (the run's iteration
// count).
func shardsEnd(shards []sim.Range) int {
	if len(shards) == 0 {
		return 0
	}
	return shards[len(shards)-1].End
}
