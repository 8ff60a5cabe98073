package ndjson

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

type header struct {
	Type string `json:"type"`
	N    int    `json:"n"`
}

type record struct {
	Type string `json:"type"`
	ID   int    `json:"id"`
	Body string `json:"body"`
}

func testRecords(n int) []record {
	out := make([]record, n)
	for i := range out {
		out[i] = record{Type: "rec", ID: i, Body: strings.Repeat("x", 3*i)}
	}
	return out
}

// scanAll loads a log, requiring a "hdr" header and keeping every
// "rec" record.
func scanAll(path string) ([]record, int, error) {
	var got []record
	torn, err := Scan(path, func(h *header) error {
		if h.Type != "hdr" {
			return errors.New("wrong header")
		}
		return nil
	}, func(r *record) bool {
		if r.Type != "rec" {
			return false
		}
		got = append(got, *r)
		return true
	})
	return got, torn, err
}

// TestReplaceAppendScanRoundTrip writes a log, appends to it, and reads
// back every record in order.
func TestReplaceAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	recs := testRecords(5)
	if err := Replace(path, header{Type: "hdr", N: 5}, recs[:3]); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[3:] {
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := scanAll(path)
	if err != nil || torn != 0 {
		t.Fatalf("scan: torn %d, err %v", torn, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestScanKeepsCompletePrefix truncates a log at every byte offset, as
// a crash mid-write would, and checks that Scan keeps exactly the
// records whose line is complete and reports the torn line.
func TestScanKeepsCompletePrefix(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	recs := testRecords(4)
	if err := Replace(full, header{Type: "hdr"}, recs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past line i's closing brace.
	var ends []int
	for i, b := range raw {
		if b == '\n' {
			ends = append(ends, i)
		}
	}
	cut := filepath.Join(dir, "cut")
	for n := 0; n <= len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := scanAll(cut)
		switch {
		case n == 0:
			if !errors.Is(err, ErrEmpty) {
				t.Fatalf("cut at 0: err %v, want ErrEmpty", err)
			}
			continue
		case n < ends[0]:
			if err == nil {
				t.Fatalf("cut at %d inside the header: no error", n)
			}
			continue
		case err != nil:
			t.Fatalf("cut at %d: %v", n, err)
		}
		complete := 0
		for _, e := range ends[1:] {
			if e <= n {
				complete++
			}
		}
		if len(got) != complete {
			t.Fatalf("cut at %d: kept %d records, want %d", n, len(got), complete)
		}
		wantTorn := 0
		if complete < len(recs) && n > ends[complete]+1 {
			wantTorn = complete + 2 // header is line 1
		}
		if torn != wantTorn {
			t.Fatalf("cut at %d: torn line %d, want %d", n, torn, wantTorn)
		}
	}
}

// TestScanRejectedRecordStops pins that a record the caller rejects is
// treated as the torn tail: nothing after it is read.
func TestScanRejectedRecordStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	recs := testRecords(3)
	recs[1].Type = "other"
	if err := Replace(path, header{Type: "hdr"}, recs); err != nil {
		t.Fatal(err)
	}
	got, torn, err := scanAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || torn != 3 {
		t.Errorf("kept %d records, torn line %d; want 1 and 3", len(got), torn)
	}
}

// TestScanHeaderErrors covers the failures that abort a load: a missing
// file, a header the caller refuses, and a header that is not JSON.
func TestScanHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := scanAll(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err %v, want fs.ErrNotExist", err)
	}
	wrong := filepath.Join(dir, "wrong")
	if err := Replace(wrong, header{Type: "other"}, testRecords(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanAll(wrong); err == nil || !strings.Contains(err.Error(), "wrong header") {
		t.Errorf("refused header: err %v", err)
	}
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanAll(garbage); err == nil || !strings.Contains(err.Error(), "malformed header") {
		t.Errorf("garbage header: err %v", err)
	}
}

// TestScanStopsAtDamagedRecord flips one bit at every offset of a log's
// record lines: Scan must keep exactly the records before the damaged
// line and report that line as torn. A record line in the form written
// before lines were framed is a torn tail too, behind an intact header.
func TestScanStopsAtDamagedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	recs := testRecords(4)
	if err := Replace(path, header{Type: "hdr"}, recs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.IndexByte(raw, '\n') + 1
	for i := body; i < len(raw); i++ {
		damaged := bytes.Clone(raw)
		damaged[i] ^= 1 << (i % 8)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := scanAll(path)
		line := 2 + bytes.Count(raw[body:i], []byte("\n"))
		if err != nil || torn != line || !slices.Equal(got, recs[:line-2]) {
			t.Fatalf("byte %d (line %d) with bit %d flipped: kept %d records, torn line %d, err %v",
				i, line, i%8, len(got), torn, err)
		}
	}

	unframed := `{"type":"hdr"}` + "\n" + `{"type":"rec","id":0,"body":""}` + "\n"
	if err := os.WriteFile(path, []byte(unframed), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, torn, err := scanAll(path); err != nil || torn != 2 || len(got) != 0 {
		t.Errorf("unframed record: kept %d records, torn line %d, err %v; want 0, 2, nil", len(got), torn, err)
	}
}
