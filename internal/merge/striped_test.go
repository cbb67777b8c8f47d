package merge

// Runs on striped spill disks (pdm.Machine.WrapSpillDisk at D > 1): the
// writer, the readers and the scrub must neither know nor care, and what the
// lanes defer must still surface where the single disk surfaced it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// stripedMachine has four asynchronous modeled disks on a stripe the 1 KiB
// frames of these tests do not divide into, and the shared heads of one job.
func stripedMachine() pdm.Machine {
	return pdm.Machine{P: 1, D: 4, StripeBytes: 600, Async: &pdm.AsyncConfig{}, Retry: &pdm.RetryConfig{},
		Delay: &pdm.DelayConfig{Seek: 10 * time.Microsecond, BytesPerSec: 256 << 20}, Heads: pdm.NewHeads(4)}
}

// TestStripedRunsMergeTree spills runs over four lanes, merges them through
// a two-level tree whose intermediate runs are written to the heads their
// inputs are being read from, scrubs everything on the way, and compares
// the output with the reference sort.
func TestStripedRunsMergeTree(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z, chunk = 6000, 16, 64
	m := stripedMachine()
	runs, ref := genRuns(t, m, n, 6, z, chunk, 11)
	var w *Writer
	var mid []*Run
	for i := 0; i < len(runs); i += 2 {
		d, err := m.NewSpillDisk(100 + i)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			w = NewWriter(d, z, chunk)
		} else {
			w.Reset(d)
		}
		out, _, err := MergeToRun(context.Background(), runs[i:i+2], w, Options{ChunkRecs: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Scrub(context.Background(), nil); err != nil {
			t.Fatalf("scrub of merged run %d: %v", i/2, err)
		}
		runs[i].Close()
		runs[i+1].Close()
		mid = append(mid, out)
	}
	got, _, _, err := collect(t, context.Background(), mid, z, Options{ChunkRecs: chunk})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatal("striped two-level merge differs from reference")
	}
	for _, r := range mid {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestWriterReset: one writer, one frame buffer, run after run — each run
// keeps its own CRC index and bytes, also when the run before it failed
// mid-frame.
func TestWriterReset(t *testing.T) {
	const z, chunk = 16, 64
	var m pdm.Machine
	m.P, m.D = 1, 1
	recs := record.Make(300, z)
	record.Fill(recs, record.Uniform{Seed: 9}, 0)
	sortSlice(recs)

	d0, _ := m.NewSpillDisk(0)
	w := NewWriter(d0, z, chunk)
	if err := w.Append(recs.Sub(0, 200)); err != nil {
		t.Fatal(err)
	}
	first, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	firstCRCs := append([]uint32(nil), first.CRCs()...)

	// A run abandoned with a partial frame buffered leaves nothing behind.
	dead := &faultinject.FaultDisk{Inner: pdm.NewMemDisk(), Budget: 0}
	w.Reset(dead)
	if err := w.Append(recs.Sub(0, 100)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append to a dead disk: %v, want the injected fault", err)
	}

	d1, _ := m.NewSpillDisk(1)
	w.Reset(d1)
	if err := w.Append(recs.Sub(200, 300)); err != nil {
		t.Fatal(err)
	}
	second, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()

	if first.Records != 200 || second.Records != 100 || second.FrameBytes != chunk*z {
		t.Fatalf("runs hold %d and %d records (frame %d), want 200 and 100 (frame %d)", first.Records, second.Records, second.FrameBytes, chunk*z)
	}
	if !reflect.DeepEqual(first.CRCs(), firstCRCs) || len(second.CRCs()) != 2 {
		t.Error("resetting the writer disturbed a finished run's CRC index")
	}
	for i, r := range []*Run{first, second} {
		if err := r.Scrub(context.Background(), nil); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
	got, _, _, err := collect(t, context.Background(), []*Run{first, second}, z, Options{ChunkRecs: chunk})
	if err != nil || !bytes.Equal(got.Data, recs.Data) {
		t.Fatalf("runs written through one reset writer do not merge back to the input (err %v)", err)
	}
}

// hintLog records the order of a disk's read-ahead hints and reads.
type hintLog struct {
	pdm.Disk
	log []string
}

func (d *hintLog) Prefetch(off int64, n int) {
	d.log = append(d.log, fmt.Sprintf("hint %d+%d", off, n))
}
func (d *hintLog) ReadAt(p []byte, off int64) error {
	d.log = append(d.log, fmt.Sprintf("read %d+%d", off, len(p)))
	return d.Disk.ReadAt(p, off)
}

// TestScrubHintsOneAhead: the scrub hints frame i+1 before it reads and
// verifies frame i, exact extents, the short last frame included, and
// nothing past the end.
func TestScrubHintsOneAhead(t *testing.T) {
	const z, chunk = 16, 64 // 1024-byte frames
	d := &hintLog{Disk: pdm.NewMemDisk()}
	w := NewWriter(d, z, chunk)
	recs := record.Make(2*chunk+10, z)
	record.Fill(recs, record.Uniform{Seed: 2}, 0)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Scrub(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"hint 0+1024", "hint 1024+1024", "read 0+1024", "hint 2048+160", "read 1024+1024", "read 2048+160"}
	if !reflect.DeepEqual(d.log, want) {
		t.Errorf("scrub issued\n  %v\nwant\n  %v", d.log, want)
	}
}

// lastStripeFails fails the write that covers one byte offset, permanently.
type lastStripeFails struct {
	pdm.Disk
	at int64
}

var errLastStripe = errors.New("last stripe lost")

func (d lastStripeFails) WriteAt(p []byte, off int64) error {
	if off <= d.at && d.at < off+int64(len(p)) {
		return pdm.MarkPermanent(errLastStripe)
	}
	return d.Disk.WriteAt(p, off)
}

// TestFinishSurfacesAnyLanesError: the run's LAST stripe fails in a lane's
// write-behind queue — whichever lane that is, no later write visits it —
// and Finish must refuse to hand out the run.
func TestFinishSurfacesAnyLanesError(t *testing.T) {
	const z, chunk = 16, 64
	m := stripedMachine()
	for stripes := 5; stripes < 9; stripes++ { // the last stripe lands on lane 0, 1, 2, 3
		size := stripes * m.StripeBytes / z * z
		recs := record.Make(size/z, z)
		record.Fill(recs, record.Uniform{Seed: uint64(stripes)}, 0)
		d := m.WrapSpillDisk(lastStripeFails{pdm.NewMemDisk(), int64(size - 1)}, 0)
		w := NewWriter(d, z, chunk)
		err := w.Append(recs)
		if err == nil {
			_, err = w.Finish()
		}
		if !errors.Is(err, errLastStripe) {
			t.Errorf("%d stripes: a run whose last stripe was lost finished with %v", stripes, err)
		}
		d.Close()
	}
}
