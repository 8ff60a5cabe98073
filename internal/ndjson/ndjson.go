// Package ndjson is the durable newline-delimited JSON log behind shard
// checkpoints and the serve result-cache snapshot: a header line, then
// one checksummed record per line.
//
// Every record line is a frame, {"sum":S,"rec":R}, where R is the
// record's JSON encoding and S the CRC-32C of R's bytes in decimal. A
// log is rewritten whole by Replace (temp file, fsync, rename), so a
// crash leaves either the previous file or the new one, never a mix. It
// grows by Appender, which fsyncs every record, so a crash can at worst
// tear the final line. Scan reads a log back up to its first torn or
// damaged line and keeps everything before it.
package ndjson

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
)

// MaxLine bounds one line of a log (a checkpointed shard's partials, a
// cached summary). Scan rejects longer lines instead of buffering them.
// The shard protocol bounds its frames by it too: a result frame
// carries the partials of one checkpoint record.
const MaxLine = 64 << 20

// ErrEmpty reports a log without a header line.
var ErrEmpty = errors.New("ndjson: empty log")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame returns the log line, newline included, that carries the
// record whose JSON encoding is rec.
func Frame(rec []byte) []byte {
	line := fmt.Appendf(nil, `{"sum":%d,"rec":`, crc32.Checksum(rec, castagnoli))
	line = append(line, rec...)
	return append(line, "}\n"...)
}

// unframe returns the record a line carries, and false when the line is
// not a frame or fails its sum.
func unframe(line []byte) ([]byte, bool) {
	rest, framed := bytes.CutPrefix(line, []byte(`{"sum":`))
	digits, rec, cut := bytes.Cut(rest, []byte(`,"rec":`))
	rec, closed := bytes.CutSuffix(rec, []byte("}"))
	if !framed || !cut || !closed {
		return nil, false
	}
	sum, err := strconv.ParseUint(string(digits), 10, 32)
	return rec, err == nil && uint32(sum) == crc32.Checksum(rec, castagnoli)
}

// Replace atomically rewrites path as header followed by records, the
// header as one JSON line and each record as one frame: the lines go to
// path+".tmp", which is fsynced and renamed over path.
func Replace[R any](path string, header any, records []R) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(header)
	for i := 0; err == nil && i < len(records); i++ {
		var rec []byte
		if rec, err = json.Marshal(&records[i]); err == nil {
			_, err = f.Write(Frame(rec))
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Appender adds records to the end of an existing log.
type Appender struct {
	f *os.File
}

// OpenAppend opens the log at path for appending.
func OpenAppend(path string) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Appender{f: f}, nil
}

// Append writes one record's frame and fsyncs it.
func (a *Appender) Append(rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := a.f.Write(Frame(b)); err != nil {
		return err
	}
	return a.f.Sync()
}

// Close closes the log file.
func (a *Appender) Close() error { return a.f.Close() }

// Scan reads the log at path. The first line is decoded into a fresh H
// and passed to header; a line that does not decode, or a header error,
// fails the scan. Every later line must be a frame whose sum holds; its
// record is then decoded into a fresh R and passed to record. A line
// that is not a frame, fails its sum or does not decode, or whose
// record the caller rejects by returning false, is a torn tail: Scan
// stops there and returns its line number. torn is 0 when every line
// was read. A log whose records predate framing therefore keeps its
// header and yields no record. A missing file returns the open error
// (test it with errors.Is(err, fs.ErrNotExist)); a file without a
// header line returns ErrEmpty.
func Scan[H, R any](path string, header func(*H) error, record func(*R) bool) (torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), MaxLine)
	line := 0
	for sc.Scan() {
		line++
		if line == 1 {
			var h H
			if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
				return 0, fmt.Errorf("malformed header: %w", err)
			}
			if err := header(&h); err != nil {
				return 0, err
			}
			continue
		}
		rec, ok := unframe(sc.Bytes())
		var r R
		if !ok || json.Unmarshal(rec, &r) != nil || !record(&r) {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if line == 0 {
		return 0, ErrEmpty
	}
	return 0, nil
}
