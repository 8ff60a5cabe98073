package shard

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"herald/internal/sim"
)

// FuzzCheckpoint feeds arbitrary bytes as a checkpoint file through
// loadCheckpoint, under the fingerprint, parameters and job options of
// each seed run. Loading must never panic, and what loads must survive
// the compaction openCheckpoint performs on resume: the rewritten file
// reloads to the same ranges with the same partials.
func FuzzCheckpoint(f *testing.F) {
	biased := testOptions()
	biased.Iterations = 256
	biased.Bias = sim.BiasAuto
	biased.HistogramBins = 4
	adaptive := testOptions()
	adaptive.Iterations = 1024
	adaptive.TargetHalfWidth = 1e-4
	type run struct {
		fp  string
		p   sim.ArrayParams
		job sim.Options
	}
	var runs []run
	dir := f.TempDir()
	for i, o := range []sim.Options{biased, adaptive} {
		p := testParams(sim.Conventional)
		path := filepath.Join(dir, fmt.Sprintf("seed%d.ckpt", i))
		if _, _, err := runStats(runCfg{
			Params: p, Options: o, Shards: 2, Checkpoint: path,
			Workers: []Worker{NewInProcessWorker("w", 1)},
		}); err != nil {
			f.Fatal(err)
		}
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		// The loader checks records against the options the run's jobs
		// execute with, as the coordinator derives them.
		r, err := newRunState(0, &RunSpec{Params: p, Options: o}, io.Discard)
		if err != nil {
			f.Fatal(err)
		}
		runs = append(runs, run{fp: RunFingerprint(r.wire, o), p: p, job: r.jobOptions})
		done, err := loadCheckpoint(path, runs[i].fp, p, r.jobOptions, io.Discard)
		if err != nil || len(done) < 2 {
			f.Fatalf("seed %d loads %d ranges (%v), want at least 2", i, len(done), err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range runs {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			first, err := loadCheckpoint(path, r.fp, r.p, r.job, io.Discard)
			if err != nil {
				continue
			}
			_, cp, err := openCheckpoint(path, r.fp, r.p, r.job, io.Discard)
			if err != nil {
				t.Fatalf("compacting a checkpoint that loaded: %v", err)
			}
			if err := cp.close(); err != nil {
				t.Fatal(err)
			}
			again, err := loadCheckpoint(path, r.fp, r.p, r.job, io.Discard)
			if err != nil {
				t.Fatalf("the compacted checkpoint does not load: %v", err)
			}
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("compaction changed the ranges:\n got %v\nwant %v", ranges(again), ranges(first))
			}
		}
	})
}

// ranges lists the [start, end) ranges of loaded checkpoint records.
func ranges(done map[int][]sim.Partial) map[int]int {
	out := make(map[int]int, len(done))
	for start, parts := range done {
		out[start] = parts[len(parts)-1].End
	}
	return out
}

// TestCheckpointBitFlipAndTruncation damages a real checkpoint the two
// ways storage does: one bit flipped at every byte offset, and the file
// cut at every offset. Each variant must be refused or restore a prefix
// of the original records, each with its original partials: a damaged
// record is dropped, never misread.
func TestCheckpointBitFlipAndTruncation(t *testing.T) {
	p := testParams(sim.Conventional)
	o := testOptions()
	o.Iterations = 256
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if _, _, err := runStats(runCfg{
		Params: p, Options: o, Shards: 3, Checkpoint: path,
		Workers: []Worker{NewInProcessWorker("w", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunState(0, &RunSpec{Params: p, Options: o}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fp := RunFingerprint(r.wire, o)
	want, err := loadCheckpoint(path, fp, p, r.jobOptions, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged.ckpt")
	load := func(data []byte) (map[int][]sim.Partial, error) {
		t.Helper()
		if err := os.WriteFile(damaged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return loadCheckpoint(damaged, fp, p, r.jobOptions, io.Discard)
	}
	// The records' starts in file order: the one each further line adds.
	var order []int
	for i, b := range orig {
		if b != '\n' {
			continue
		}
		got, err := load(orig[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		for start := range got {
			if !slices.Contains(order, start) {
				order = append(order, start)
			}
		}
	}
	if len(order) < 3 || len(order) != len(want) {
		t.Fatalf("the lines add %d records and the file loads %d, want at least 3 of each", len(order), len(want))
	}

	check := func(what string, data []byte) {
		t.Helper()
		got, err := load(data)
		if err != nil {
			return // refused
		}
		if len(got) > len(order) {
			t.Fatalf("%s: restored %d records of %d", what, len(got), len(order))
		}
		for _, start := range order[:len(got)] {
			if !reflect.DeepEqual(got[start], want[start]) {
				t.Fatalf("%s: restored %v, want a prefix of %v with the original partials", what, ranges(got), ranges(want))
			}
		}
	}
	for i := range orig {
		flipped := bytes.Clone(orig)
		flipped[i] ^= 1 << (i % 8)
		check(fmt.Sprintf("byte %d with bit %d flipped", i, i%8), flipped)
		check(fmt.Sprintf("cut at %d", i), orig[:i])
	}
}
