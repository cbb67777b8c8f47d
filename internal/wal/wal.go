// Package wal is the one write-ahead-log implementation behind every
// durable state file in the repo: the hierarchical sort's run manifest
// (manifest.wal), appended entry by entry, and the server's job file
// (ckpt/<id>/job.json), one entry written by Rewrite and read by Replay. A
// log is a JSON-lines file; an entry is durable when — and only when — its
// line, terminating newline included, has been fsync'd.
//
// The contract, stated once (DESIGN.md §13):
//
//   - Append marshals one entry, writes it with its newline, and fsyncs:
//     one Sync per entry, no group commit. A failed write or Sync latches:
//     every later Append returns that first error and touches the file no
//     more — after a failed fsync the kernel may have dropped the dirty
//     pages, so a later Sync that succeeds proves nothing about them.
//   - A final fragment WITHOUT a terminating newline is torn: the crash hit
//     mid-append, the entry's durability point was never reached. Replay
//     skips it, and Open truncates it before the first new append — so a
//     new entry can never be glued onto the fragment and lost with it.
//   - A newline-terminated line the caller cannot decode is not torn, it is
//     damage: Replay fails with ErrCorrupt naming the line.
//   - Rewrite replaces a file whole by writing a sibling temp file,
//     fsyncing it, and renaming it over the file.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrCorrupt reports a complete (newline-terminated) log line that failed to
// decode or fold. The wrapping error names the file and line and carries the
// decoder's own error.
var ErrCorrupt = errors.New("wal: corrupt entry")

// Log is the append side of one log file. A nil *Log is a valid no-op log,
// so callers whose durability is optional append unconditionally.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	err error // the first failed write or Sync; latched
}

// Open opens the log at path for appending, creating it and its parent
// directories as needed, and truncates a torn tail so the next Append
// starts on a line boundary.
func Open(path string) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err == nil {
		if durable := bytes.LastIndexByte(data, '\n') + 1; durable < len(data) {
			err = f.Truncate(int64(durable))
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: repairing the tail of %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Append writes v as one JSON line and fsyncs it: the entry is durable when
// Append returns, not before.
func (l *Log) Append(v any) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wal: encoding entry: %w", err)
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(data); err != nil {
		l.err = fmt.Errorf("wal: appending entry: %w", err)
	} else if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: syncing entry: %w", err)
	}
	return l.err
}

// Close releases the file handle. Every appended entry is already durable;
// readers replay from the file, never from this handle.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}

// Replay calls fn with each durable line of the log at path, in order,
// without its newline. Blank lines are skipped, as is a torn final
// fragment. An error from fn — the line did not decode, or does not fold
// into a valid state — fails the replay with ErrCorrupt. A missing file is
// reported as the os error (errors.Is(err, fs.ErrNotExist)).
func Replay(path string, fn func(line []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for n := 1; ; n++ {
		end := bytes.IndexByte(data, '\n')
		if end < 0 {
			return nil // nothing, or a torn tail that never became durable
		}
		line := bytes.TrimSpace(data[:end])
		data = data[end+1:]
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("%w: %s line %d: %w", ErrCorrupt, path, n, err)
		}
	}
}

// Rewrite atomically replaces the log at path with exactly entries. A crash
// leaves either the old log (none, for a new file) or the new one.
func Rewrite[T any](path string, entries []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // one compact value + '\n' per Encode: Append's format
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("wal: encoding entry: %w", err)
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err = f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", tmp, err)
	}
	return os.Rename(tmp, path)
}
