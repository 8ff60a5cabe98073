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
// binding the file to a run by its RunFingerprint alone; each following
// line records one completed range as its cell partials, and the range
// is the one those partials cover. Records hold canonical cells, so a
// run resumes under any claim divisor. Appending is the only write mode
// during a run, so a crash can at worst tear the final line. Every
// record line carries the log's checksum, and the loader keeps the
// records before the first torn or damaged line: the ranges from there
// on are recomputed, never misread. A file written before record lines
// were framed keeps its header binding and restores no record. On
// resume the surviving records are compacted into a fresh file first,
// so the log never accretes torn garbage between lines.

type checkpointHeader struct {
	Type        string `json:"type"` // "header"
	Fingerprint string `json:"fingerprint"`
	Iterations  int    `json:"iterations"`
	Seed        uint64 `json:"seed"`
}

type checkpointRecord struct {
	Type     string        `json:"type"` // "shard"
	Partials []sim.Partial `json:"partials"`
}

// checkpoint is an open append-mode checkpoint log. Its methods accept
// a nil receiver (a run without a checkpoint).
type checkpoint struct {
	log *ndjson.Appender
}

// record appends one completed range and flushes it to disk.
func (c *checkpoint) record(parts []sim.Partial) error {
	if c == nil {
		return nil
	}
	if err := c.log.Append(checkpointRecord{Type: "shard", Partials: parts}); err != nil {
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

// loadCheckpoint reads an existing checkpoint file, returning its
// completed ranges keyed by start, each with its partials in cell
// order. A record is kept when its partials pass sim.CheckPartials for
// a run of p under the job options o over the range they cover, and
// that range overlaps no record kept before it; other records are
// dropped with a warning to logw, as is everything from the first line
// that fails its checksum. A header for another run is an error: the
// file must not be silently clobbered.
func loadCheckpoint(path, fp string, p sim.ArrayParams, o sim.Options, logw io.Writer) (map[int][]sim.Partial, error) {
	done := make(map[int][]sim.Partial)
	torn, err := ndjson.Scan(path, func(h *checkpointHeader) error {
		if h.Type != "header" {
			return fmt.Errorf("malformed header")
		}
		if h.Fingerprint != fp {
			return fmt.Errorf("belongs to a different run (fingerprint %s, want %s)", h.Fingerprint, fp)
		}
		return nil
	}, func(rec *checkpointRecord) bool {
		if rec.Type != "shard" {
			return false
		}
		parts := rec.Partials
		if len(parts) == 0 {
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping invalid record: no partials\n", path)
			return true
		}
		sortParts(parts)
		rg := sim.Range{Start: parts[0].Start, End: parts[len(parts)-1].End}
		if err := sim.CheckPartials(p, o, rg.Start, rg.End, parts); err != nil {
			fmt.Fprintf(logw, "shard: checkpoint %s: dropping invalid record: %v\n", path, err)
			return true
		}
		for start, kept := range done {
			if start < rg.End && rg.Start < kept[len(kept)-1].End {
				fmt.Fprintf(logw, "shard: checkpoint %s: dropping record [%d,%d) overlapping an earlier one\n", path, rg.Start, rg.End)
				return true
			}
		}
		done[rg.Start] = parts
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", path, err)
	}
	if torn > 0 {
		// Everything before a torn tail is intact; the rest recomputes.
		fmt.Fprintf(logw, "shard: checkpoint %s: dropping torn or damaged record at line %d and the records after it\n", path, torn)
	}
	return done, nil
}

// openCheckpoint prepares the checkpoint at path for a run: loading
// completed ranges from an existing file and compacting the survivors
// into a fresh log, or creating a new log when none exists. fp is the
// run's RunFingerprint, and p and o its parameters and job options. It
// returns the completed ranges and the open append handle.
func openCheckpoint(path, fp string, p sim.ArrayParams, o sim.Options, logw io.Writer) (map[int][]sim.Partial, *checkpoint, error) {
	done, err := loadCheckpoint(path, fp, p, o, logw)
	if errors.Is(err, fs.ErrNotExist) {
		done, err = nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	// Rewrite the log from the validated records, so a previous torn
	// tail never corrupts subsequent appends.
	starts := make([]int, 0, len(done))
	for start := range done {
		starts = append(starts, start)
	}
	sort.Ints(starts)
	recs := make([]checkpointRecord, len(starts))
	for i, start := range starts {
		recs[i] = checkpointRecord{Type: "shard", Partials: done[start]}
	}
	hdr := checkpointHeader{Type: "header", Fingerprint: fp, Iterations: o.Iterations, Seed: o.Seed}
	if err := ndjson.Replace(path, hdr, recs); err != nil {
		return nil, nil, err
	}
	log, err := ndjson.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	return done, &checkpoint{log: log}, nil
}
