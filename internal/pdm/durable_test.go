package pdm

// Tests of the durability primitives the checkpoint/resume layer builds on:
// keep-on-close file disks, the wrapper-stack walkers, and the ENOSPC
// classification that keeps a full disk from burning retry budget.

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestKeepFileDiskSurvivesClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.dat")
	d, err := NewKeepFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Path() != path {
		t.Errorf("Path() = %q, want %q", d.Path(), path)
	}
	payload := []byte("durable bytes")
	if err := d.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("keep-on-close disk removed its file: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("file holds %q, want %q", got, payload)
	}

	// Reopen and read back — the resume path's move.
	rd, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if err := rd.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(payload) {
		t.Errorf("reopened disk read %q, want %q", buf, payload)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("reopened disk removed the file on Close: %v", err)
	}

	// An ordinary (scratch) FileDisk still removes its file.
	scratch := filepath.Join(t.TempDir(), "scratch.dat")
	sd, err := NewFileDisk(scratch)
	if err != nil {
		t.Fatal(err)
	}
	sd.Close()
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("scratch FileDisk kept its file (stat err %v)", err)
	}
}

func TestKeepFileBackend(t *testing.T) {
	dir := t.TempDir()
	b := FileBackend{Dir: dir, Prefix: "ckpt-", Keep: true}
	d, err := b.NewDisk(3)
	if err != nil {
		t.Fatal(err)
	}
	fd := DiskFile(d)
	if fd == nil {
		t.Fatal("DiskFile found no FileDisk under a FileBackend disk")
	}
	path := fd.Path()
	if filepath.Dir(path) != dir {
		t.Errorf("spill landed at %q, want inside %q", path, dir)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("Keep backend's disk removed its file: %v", err)
	}
}

func TestDiskWalkersThroughWrappers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrapped.dat")
	fd, err := NewKeepFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	m := Machine{P: 1, D: 1, Async: &AsyncConfig{}, Retry: &RetryConfig{}}
	d := m.WrapSpillDisk(fd, 0)
	if got := DiskFile(d); got != fd {
		t.Errorf("DiskFile through the wrapper stack = %v, want the base FileDisk", got)
	}
	if got := DiskPath(d); got != path {
		t.Errorf("DiskPath = %q, want %q", got, path)
	}
	if err := d.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := SyncDisk(d); err != nil { // flushes write-behind, then fsyncs
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || len(got) != 1 {
		t.Fatalf("after SyncDisk: read %q, err %v", got, err)
	}
	d.Close()

	// A memory disk has no file underneath: the walkers report that, they
	// don't invent one.
	md := NewMemDisk()
	if DiskFile(md) != nil || DiskPath(md) != "" {
		t.Error("walkers found a file under a MemDisk")
	}
	if err := SyncDisk(md); err != nil {
		t.Errorf("SyncDisk on a MemDisk: %v", err)
	}
}

func TestNoSpaceClassifiedPermanent(t *testing.T) {
	wrapped := &os.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}
	if !isNoSpace(wrapped) {
		t.Error("ENOSPC not recognized")
	}
	if !isNoSpace(&os.PathError{Op: "write", Path: "x", Err: syscall.EDQUOT}) {
		t.Error("EDQUOT not recognized")
	}
	if isNoSpace(errors.New("disk on fire")) {
		t.Error("arbitrary error misclassified as no-space")
	}

	// The classified error is permanent (fails fast, never retried) and
	// matches ErrNoSpace via errors.Is.
	err := MarkPermanent(ErrNoSpace)
	if !Permanent(err) || Transient(err) {
		t.Error("no-space error is not classified permanent")
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Error("classified error does not match ErrNoSpace")
	}
}
