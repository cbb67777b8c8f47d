package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendLatchesFailure: once an append fails, the log refuses every
// later one with that error, even with a working file under it — nothing is
// written to, or fsync'd on, a log whose durability is already in doubt.
func TestAppendLatchesFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append("first"); err != nil {
		t.Fatal(err)
	}
	good := l.f
	broken, err := os.Open(path) // read-only: the write fails
	if err != nil {
		t.Fatal(err)
	}
	l.f = broken
	failed := l.Append("second")
	broken.Close()
	if failed == nil {
		t.Fatal("an append to a read-only file succeeded")
	}
	l.f = good
	if err := l.Append("third"); err != failed {
		t.Errorf("append after a failure returned %v, want the latched %v", err, failed)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("\"first\"\n")) {
		t.Errorf("log holds %q, want only the entry appended before the failure", data)
	}
}
