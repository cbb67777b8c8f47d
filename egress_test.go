package colsort

// Tests of the one egress (sink.go: egress) on both sides of the bound: a
// Sort with a Sink checks each chunk's order before the sink sees it and the
// multiset before the writer is closed, and ToFile publishes only on
// success — a failed Sort leaves its path exactly as it was, with no partial
// file beside it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/testutil"
	"colsort/internal/verify"
)

const egressZ = 16

func egressSorter(t *testing.T) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: egressZ})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// failAbove sorts 3× the bound from a file into dst and cancels the Sort at
// the first merge event — with the final merge's sink open.
func failAbove(t *testing.T, s *Sorter, dir string, dst Sink) {
	t.Helper()
	in := filepath.Join(dir, "in.dat")
	raw := genRaw(int(3*s.MaxRecords(Threaded)), egressZ, record.Uniform{Seed: 41})
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromFile(in), dst, WithAlgorithm(Threaded),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("a Sort cancelled mid-merge succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// failBelow sorts one run into dst under seeded bit flips on the store's
// reads, which the drain's verification must refuse.
func failBelow(t *testing.T, s *Sorter, dst Sink) {
	t.Helper()
	res, err := s.Sort(chaosCtx(faultinject.ChaosConfig{Seed: 7, PBitFlip: 0.5}),
		Generate(record.Uniform{Seed: 43}, s.MaxRecords(Threaded)), dst, WithAlgorithm(Threaded))
	if err == nil {
		res.Close()
		t.Fatal("a Sort under bit flips succeeded")
	}
}

// passSink is a caller's own sink around another: it forwards Open, Write
// and Close, and has no way to abort what it wraps.
type passSink struct{ inner Sink }

func (s passSink) Open(z int) (RecordWriter, error) {
	w, err := s.inner.Open(z)
	return passWriter{w}, err
}

type passWriter struct{ w RecordWriter }

func (w passWriter) Write(c record.Slice) error { return w.w.Write(c) }
func (w passWriter) Close() error               { return w.w.Close() }

// TestEgressFailedSortLeavesPathAsItWas: on both sides of the bound, a
// failed Sort into ToFile leaves its path exactly as it was — no file, or
// the file already there byte-identical — and no partial file beside it.
// Wrapped in a caller's sink, which is never closed on failure, ToFile
// publishes nothing either; its partial file is the caller's to discard.
func TestEgressFailedSortLeavesPathAsItWas(t *testing.T) {
	for _, side := range []string{"above", "below"} {
		for _, before := range [][]byte{nil, []byte("the previous output, which a failed Sort must keep\n")} {
			for _, wrapped := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/existing=%v/wrapped=%v", side, before != nil, wrapped), func(t *testing.T) {
					testutil.CheckGoroutines(t)
					dir := t.TempDir()
					out := filepath.Join(dir, "out.dat")
					if before != nil {
						if err := os.WriteFile(out, before, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					dst := ToFile(out)
					if wrapped {
						dst = passSink{dst}
					}
					if s := egressSorter(t); side == "above" {
						failAbove(t, s, dir, dst)
					} else {
						failBelow(t, s, dst)
					}
					got, err := os.ReadFile(out)
					switch {
					case before == nil && !os.IsNotExist(err):
						t.Errorf("a failed Sort left a file at its path (read err %v)", err)
					case before != nil && !bytes.Equal(got, before):
						t.Errorf("a failed Sort changed the file at its path (%d bytes, want %d; err %v)", len(got), len(before), err)
					}
					if _, err := os.Stat(out + ".partial"); !wrapped && !os.IsNotExist(err) {
						t.Errorf("a failed Sort left its partial file behind (stat err %v)", err)
					}
				})
			}
		}
	}
}

// TestEgressKeepsFileMode: a successful Sort publishes over an existing
// file by rename, and the new file keeps the old one's mode.
func TestEgressKeepsFileMode(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := egressSorter(t)
	for _, n := range []int64{s.MaxRecords(Threaded) / 2, 3 * s.MaxRecords(Threaded)} {
		out := filepath.Join(t.TempDir(), "out.dat")
		if err := os.WriteFile(out, nil, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(out, 0o600); err != nil {
			t.Fatal(err)
		}
		res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 53}, n), ToFile(out))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res.Close()
		fi, err := os.Stat(out)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o600 || fi.Size() != n*egressZ {
			t.Errorf("n=%d: output mode %v size %d, want 0600 and %d bytes", n, fi.Mode(), fi.Size(), n*egressZ)
		}
	}
}

// TestEgressDevNull: a path that is not a regular file is written in place,
// so ToFile("/dev/null") still sorts on both sides of the bound.
func TestEgressDevNull(t *testing.T) {
	testutil.CheckGoroutines(t)
	if _, err := os.Stat(os.DevNull); err != nil {
		t.Skipf("no %s: %v", os.DevNull, err)
	}
	s := egressSorter(t)
	for _, n := range []int64{s.MaxRecords(Threaded) / 2, 3 * s.MaxRecords(Threaded)} {
		res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 47}, n), ToFile(os.DevNull))
		if err != nil {
			t.Fatalf("n=%d: Sort into %s: %v", n, os.DevNull, err)
		}
		res.Close()
	}
}

// recordingSink is a library-style sink for the egress: it keeps what it
// was written and whether it was closed or aborted.
type recordingSink struct {
	recs            []byte
	closed, aborted bool
}

func (s *recordingSink) Open(int) (RecordWriter, error) { return s, nil }
func (s *recordingSink) Write(c record.Slice) error {
	s.recs = append(s.recs, c.Data...)
	return nil
}
func (s *recordingSink) Close() error { s.closed = true; return nil }
func (s *recordingSink) Abort()       { s.aborted = true }

// drainStore is a hand-built sorted store of 4 columns of 32 rows, one
// segment per column, drained through the egress against its multiset; edit
// runs on the store first.
func drainStore(t *testing.T, edit func(st *pdm.Store)) (*recordingSink, []byte, error) {
	t.Helper()
	st, err := pdm.Machine{P: 4, D: 4}.NewStore(32, 4, egressZ, pdm.ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := record.Sorted{Seed: 1} // keys equal the column-major index
	if err := st.Fill(g); err != nil {
		t.Fatal(err)
	}
	sorted, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	sink := &recordingSink{}
	err = egress(sink, egressZ, record.KeyCodec{}, record.OfGenerated(g, 128, egressZ),
		func(emit func(record.Slice) error) (record.Checksum, error) {
			return verify.Drain(context.Background(), st, 128, emit)
		})
	return sink, sorted.Data, err
}

// editRows rewrites rows lo… of column j, as many as f's slice holds,
// through f.
func editRows(t *testing.T, st *pdm.Store, j, lo, n int, f func(recs record.Slice)) {
	t.Helper()
	var cnt sim.Counters
	recs := record.Make(n, egressZ)
	if err := st.ReadRows(&cnt, st.Owner(lo, j), j, lo, recs); err != nil {
		t.Fatal(err)
	}
	f(recs)
	if err := st.WriteRows(&cnt, st.Owner(lo, j), j, lo, recs); err != nil {
		t.Fatal(err)
	}
}

// TestEgressDrainOrderViolation: two records swapped in column 2 keep the
// multiset, so only the drain's order check can object — at column 2 row
// 11 — and the writer saw columns 0 and 1 only, and was aborted.
func TestEgressDrainOrderViolation(t *testing.T) {
	testutil.CheckGoroutines(t)
	sink, sorted, err := drainStore(t, func(st *pdm.Store) {
		editRows(t, st, 2, 10, 2, func(recs record.Slice) {
			a := append([]byte(nil), recs.Record(0)...)
			recs.CopyRecord(0, recs, 1)
			copy(recs.Record(1), a)
		})
	})
	var ve *verify.Error
	if !errors.As(err, &ve) || ve.Kind != "order violation" || ve.Column != 2 || ve.Row != 11 {
		t.Fatalf("err = %v, want an order violation at column 2 row 11", err)
	}
	if !bytes.Equal(sink.recs, sorted[:2*32*egressZ]) {
		t.Errorf("the writer saw %d records, want exactly the 64 of columns 0 and 1", len(sink.recs)/egressZ)
	}
	if !sink.aborted || sink.closed {
		t.Errorf("writer aborted=%v closed=%v, want aborted and not closed", sink.aborted, sink.closed)
	}
}

// TestEgressDrainMultisetViolation: a flipped payload bit keeps the order,
// so the whole stream passes the order check and reaches the writer; the
// multiset comparison at end of stream fails, and the writer is aborted,
// not closed.
func TestEgressDrainMultisetViolation(t *testing.T) {
	testutil.CheckGoroutines(t)
	sink, _, err := drainStore(t, func(st *pdm.Store) {
		editRows(t, st, 3, 20, 1, func(recs record.Slice) { recs.Data[egressZ-1] ^= 1 })
	})
	var ve *verify.Error
	if err == nil || errors.As(err, &ve) {
		t.Fatalf("err = %v, want the end-of-stream multiset failure", err)
	}
	if len(sink.recs) != 128*egressZ {
		t.Errorf("the writer saw %d records, want all 128", len(sink.recs)/egressZ)
	}
	if !sink.aborted || sink.closed {
		t.Errorf("writer aborted=%v closed=%v, want aborted and not closed", sink.aborted, sink.closed)
	}
}
