// Package ndjson is the durable newline-delimited JSON log behind shard
// checkpoints and the serve result-cache snapshot: a header line, then
// one JSON record per line.
//
// A log is rewritten whole by Replace (temp file, fsync, rename), so a
// crash leaves either the previous file or the new one, never a mix. It
// grows by Appender, which fsyncs every record, so a crash can at worst
// tear the final line. Scan reads a log back up to its first torn line
// and keeps everything before it.
package ndjson

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// maxLine bounds one line of a log (a checkpointed shard's partials, a
// cached summary). Scan rejects longer lines instead of buffering them.
const maxLine = 64 << 20

// ErrEmpty reports a log without a header line.
var ErrEmpty = errors.New("ndjson: empty log")

// Replace atomically rewrites path as header followed by records, one
// JSON value per line: the lines go to path+".tmp", which is fsynced and
// renamed over path.
func Replace[R any](path string, header any, records []R) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(records); i++ {
		err = enc.Encode(&records[i])
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
	f   *os.File
	enc *json.Encoder
}

// OpenAppend opens the log at path for appending.
func OpenAppend(path string) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Appender{f: f, enc: json.NewEncoder(f)}, nil
}

// Append writes one record line and fsyncs it.
func (a *Appender) Append(rec any) error {
	if err := a.enc.Encode(rec); err != nil {
		return err
	}
	return a.f.Sync()
}

// Close closes the log file.
func (a *Appender) Close() error { return a.f.Close() }

// Scan reads the log at path. The first line is decoded into a fresh H
// and passed to header; a line that does not decode, or a header error,
// fails the scan. Every later line is decoded into a fresh R and passed
// to record. A line that does not decode, or that record rejects by
// returning false, is a torn tail: Scan stops there and returns its
// line number. torn is 0 when every line was read. A missing file
// returns the open error (test it with errors.Is(err, fs.ErrNotExist));
// a file without a header line returns ErrEmpty.
func Scan[H, R any](path string, header func(*H) error, record func(*R) bool) (torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
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
		var r R
		if json.Unmarshal(sc.Bytes(), &r) != nil || !record(&r) {
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
