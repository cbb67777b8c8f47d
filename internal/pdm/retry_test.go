package pdm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Sentinels of the faults flakyDisk returns.
var (
	errInjected = errors.New("pdm test: injected disk fault")
	errDiskDead = errors.New("pdm test: disk failed permanently")
)

// flakyDisk fails its first failN operations (reads and writes combined)
// with err, then behaves like the inner MemDisk.
type flakyDisk struct {
	inner Disk
	err   error
	failN int
	ops   int
}

func (d *flakyDisk) step() error {
	d.ops++
	if d.ops <= d.failN {
		return d.err
	}
	return nil
}

func (d *flakyDisk) ReadAt(p []byte, off int64) error {
	if err := d.step(); err != nil {
		return err
	}
	return d.inner.ReadAt(p, off)
}

func (d *flakyDisk) WriteAt(p []byte, off int64) error {
	if err := d.step(); err != nil {
		return err
	}
	return d.inner.WriteAt(p, off)
}

func (d *flakyDisk) Close() error { return d.inner.Close() }

func TestErrorClassification(t *testing.T) {
	base := errors.New("boom")
	if Transient(nil) || Permanent(nil) {
		t.Error("nil must be neither transient nor permanent")
	}
	if !Transient(MarkTransient(base)) {
		t.Error("MarkTransient not recognized")
	}
	if Transient(MarkPermanent(base)) || !Permanent(MarkPermanent(base)) {
		t.Error("MarkPermanent misclassified")
	}
	// Unclassified errors fail fast: retrying an unknown cause only masks it.
	if Transient(base) || !Permanent(base) {
		t.Error("unclassified error must be permanent")
	}
	// Classification wraps: sentinel matching keeps working through it and
	// through OpError.
	wrapped := &OpError{Op: "read", Disk: 3, Off: 64, Len: 8,
		Err: MarkTransient(fmt.Errorf("flaky: %w", errInjected))}
	if !errors.Is(wrapped, errInjected) {
		t.Error("errors.Is(errInjected) lost through OpError + classification")
	}
	if !Transient(wrapped) {
		t.Error("transient classification lost through OpError")
	}
}

func TestRetryDiskHealsTransient(t *testing.T) {
	var stats FaultStats
	fd := &flakyDisk{inner: NewMemDisk(), err: MarkTransient(errInjected), failN: 2}
	d := NewRetryDisk(fd, RetryConfig{MaxAttempts: 4, BaseDelay: -1, Stats: &stats}, 0, false)
	if err := d.WriteAt([]byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatalf("WriteAt after 2 transient faults: %v", err)
	}
	got := make([]byte, 4)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("read back %v", got)
	}
	if n := stats.Retries.Load(); n != 2 {
		t.Errorf("Retries = %d, want 2", n)
	}
	if n := stats.GaveUps.Load(); n != 0 {
		t.Errorf("GaveUps = %d, want 0", n)
	}
}

func TestRetryDiskGivesUpWithContext(t *testing.T) {
	var stats FaultStats
	fd := &flakyDisk{inner: NewMemDisk(), err: MarkTransient(errInjected), failN: 99}
	d := NewRetryDisk(fd, RetryConfig{MaxAttempts: 3, BaseDelay: -1, Stats: &stats}, 5, true)
	err := d.ReadAt(make([]byte, 16), 128)
	if err == nil {
		t.Fatal("want failure after exhausting attempts")
	}
	if !errors.Is(err, errInjected) {
		t.Errorf("errors.Is(errInjected) = false: %v", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error lacks OpError context: %v", err)
	}
	if oe.Op != "read" || oe.Disk != 5 || !oe.Spill || oe.Off != 128 || oe.Len != 16 {
		t.Errorf("OpError = %+v", oe)
	}
	if fd.ops != 3 {
		t.Errorf("inner ops = %d, want exactly MaxAttempts", fd.ops)
	}
	if stats.Retries.Load() != 2 || stats.GaveUps.Load() != 1 {
		t.Errorf("stats = %d retries, %d gave-ups; want 2, 1",
			stats.Retries.Load(), stats.GaveUps.Load())
	}
}

func TestRetryDiskFailsFastOnPermanent(t *testing.T) {
	var stats FaultStats
	fd := &flakyDisk{inner: NewMemDisk(), err: MarkPermanent(errDiskDead), failN: 99}
	d := NewRetryDisk(fd, RetryConfig{MaxAttempts: 4, BaseDelay: -1, Stats: &stats}, 1, false)
	err := d.WriteAt(make([]byte, 8), 0)
	if !errors.Is(err, errDiskDead) {
		t.Fatalf("err = %v, want errDiskDead", err)
	}
	if fd.ops != 1 {
		t.Errorf("permanent fault retried: %d inner ops", fd.ops)
	}
	if stats.Retries.Load() != 0 {
		t.Errorf("Retries = %d on a permanent fault", stats.Retries.Load())
	}
	// Unclassified errors are equally final.
	fd2 := &flakyDisk{inner: NewMemDisk(), err: errInjected, failN: 99}
	d2 := NewRetryDisk(fd2, RetryConfig{MaxAttempts: 4, BaseDelay: -1}, 0, false)
	if err := d2.ReadAt(make([]byte, 1), 0); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if fd2.ops != 1 {
		t.Errorf("unclassified fault retried: %d inner ops", fd2.ops)
	}
}

func TestRetryDiskCancelAbortsBackoff(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	fd := &flakyDisk{inner: NewMemDisk(), err: MarkTransient(errInjected), failN: 99}
	// An hour-scale backoff: only the fired Cancel channel lets this finish.
	d := NewRetryDisk(fd, RetryConfig{
		MaxAttempts: 4, BaseDelay: time.Hour, MaxDelay: time.Hour, Cancel: cancel,
	}, 0, false)
	start := time.Now()
	err := d.ReadAt(make([]byte, 1), 0)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled backoff still slept %v", elapsed)
	}
	if fd.ops != 1 {
		t.Errorf("inner ops = %d after cancelled backoff, want 1", fd.ops)
	}
}

// TestRetryBelowAsyncHealsBeforeLatch is the layering contract: a transient
// fault on a deferred write-behind operation retries inside the async
// worker's inner call and never latches the AsyncDisk.
func TestRetryBelowAsyncHealsBeforeLatch(t *testing.T) {
	var stats FaultStats
	fd := &flakyDisk{inner: NewMemDisk(), err: MarkTransient(errInjected), failN: 1}
	r := NewRetryDisk(fd, RetryConfig{MaxAttempts: 4, BaseDelay: -1, Stats: &stats}, 0, false)
	a := NewAsyncDisk(r, AsyncConfig{})
	if err := a.WriteAt([]byte{9, 9}, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush latched despite retry below: %v", err)
	}
	got := make([]byte, 2)
	if err := a.ReadAt(got, 0); err != nil || got[0] != 9 {
		t.Fatalf("ReadAt: %v %v", got, err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if stats.Retries.Load() == 0 {
		t.Error("no retry recorded; the fault cannot have been healed below the latch")
	}
}

// Permanent reports whether err is a disk fault that retrying cannot heal —
// any non-nil error that is not classified transient.
func Permanent(err error) bool { return err != nil && !Transient(err) }
