package pdm

// Tests of the durability primitives the checkpoint/resume layer builds on:
// keep-on-close file disks, the wrapper-stack walkers, and the ENOSPC
// classification that keeps a full disk from burning redo budget.

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// newKeepDisk creates a keep-on-close file disk at path, as a checkpointed
// job's spill backend makes its runs.
func newKeepDisk(t *testing.T, path string) *FileDisk {
	t.Helper()
	d, err := NewFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d.keep = true
	return d
}

func TestKeepFileDiskSurvivesClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.dat")
	d := newKeepDisk(t, path)
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
	fd := newKeepDisk(t, path)
	m := Machine{P: 1, D: 1, Async: &AsyncConfig{}}
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

// TestNoSpaceClassifiedPermanent: ENOSPC and EDQUOT are recognized through
// any wrapping, so FileDisk.WriteAt names them ErrNoSpace — the one spill
// failure the run redo never retries.
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
}

// TestFileDiskSyncFailureLatches: after one failed fsync the dirty pages may
// be gone, so a disk whose Sync failed fails every later Sync with the first
// error, even once the file under it would sync again.
func TestFileDiskSyncFailureLatches(t *testing.T) {
	d, err := NewFileDisk(filepath.Join(t.TempDir(), "run.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WriteAt([]byte("run bytes"), 0); err != nil {
		t.Fatal(err)
	}
	closed, err := os.Create(filepath.Join(t.TempDir(), "closed"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	f := d.f
	d.f = closed
	first := d.Sync()
	d.f = f
	if first == nil {
		t.Fatal("Sync of a closed file succeeded")
	}
	if err := d.Sync(); !errors.Is(err, first) {
		t.Fatalf("the Sync after a failed one returned %v, want the first failure %v", err, first)
	}
}
