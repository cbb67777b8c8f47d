package colsort

// The staged phases around a single-run sort (DESIGN.md §6): the ingest
// (read, encode and pad ‖ fold ‖ store write) and the drain (store read ‖
// order check and fold ‖ emit). A failure at any stage, or the context's
// end, fails the phase with that error, joins every goroutine, and leaves
// every segment buffer back in the store's pool.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
	"colsort/internal/verify"
)

const phaseZ = egressZ // the record size editRows edits

// phaseBuffers is the segment buffers a staged phase takes from an empty
// pool: one per stage. The drain's store is filled first, through a
// two-stage chain whose two buffers the drain reuses.
const phaseBuffers = 3

var (
	errInput  = errors.New("input failed")
	errOutput = errors.New("output failed")
)

// phaseStore is a column-owned store of 8 columns of 64 rows on four
// memory disks, processor 1's behind a FaultDisk that fails once budget
// bytes have moved (no fault when budget < 0), with a pool of its own.
func phaseStore(t *testing.T, budget int64) *pdm.Store {
	t.Helper()
	arrays := make([]*pdm.DiskArray, 4)
	for p := range arrays {
		var d pdm.Disk = pdm.NewMemDisk()
		if p == 1 && budget >= 0 {
			d = &faultinject.FaultDisk{Inner: d, Budget: budget}
		}
		arrays[p] = pdm.NewDiskArray([]pdm.Disk{d}, pdm.DefaultStripeBytes)
	}
	st, err := pdm.NewGroupStore(64, 8, phaseZ, 4, 1, arrays)
	if err != nil {
		t.Fatal(err)
	}
	st.Pool = record.NewPool()
	t.Cleanup(func() { st.Close() })
	return st
}

// readerOf opens a Source and returns its reader.
func readerOf(t *testing.T, src Source) RecordReader {
	t.Helper()
	_, rd, err := src.Open(phaseZ)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// failingAt is a stream of raw's first k records that then fails.
func failingAt(raw []byte, k int) io.Reader {
	return io.MultiReader(bytes.NewReader(raw[:k*phaseZ]), iotest.ErrReader(errInput))
}

// cancellingReader reads generated records record by record and cancels
// its context before record k.
type cancellingReader struct {
	g      record.Generator
	i, k   int64
	cancel context.CancelFunc
}

func (r *cancellingReader) ReadRecord(rec []byte) error {
	if r.i == r.k {
		r.cancel()
	}
	r.g.Gen(rec, r.i)
	r.i++
	return nil
}

func (r *cancellingReader) Close() error { return nil }

// TestIngestStages: the staged ingest fails with the input's error at the
// record it failed on, with a store write's fault, and with the context's
// cancellation mid-phase, and every buffer is back in the pool each time.
func TestIngestStages(t *testing.T) {
	const n = 8*64 - 5 // five pads
	raw := genRaw(n, phaseZ, record.Uniform{Seed: 5})
	ok := phaseStore(t, -1)
	want, err := fillStore(context.Background(), ok, readerOf(t, FromBytes(raw)), record.KeyCodec{}, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := record.OfGenerated(rawGen(raw), n, phaseZ); !want.Equal(got) {
		t.Fatalf("ingest checksum %+v, want %+v", want, got)
	}
	if got := ok.Pool.FreeBuffers(); got != phaseBuffers {
		t.Fatalf("a successful ingest left %d buffers in the store's pool, want %d", got, phaseBuffers)
	}
	for _, tc := range []struct {
		name   string
		budget int64
		rd     func(cancel context.CancelFunc) RecordReader
		is     error
		says   string
	}{
		{"read", -1, func(context.CancelFunc) RecordReader { return readerOf(t, FromReader(failingAt(raw, 209), n)) },
			errInput, "input record 209"},
		{"write", 64 * phaseZ, func(context.CancelFunc) RecordReader { return readerOf(t, FromBytes(raw)) },
			faultinject.ErrInjected, ""},
		{"cancel", -1, func(cancel context.CancelFunc) RecordReader {
			return &cancellingReader{g: rawGen(raw), k: 200, cancel: cancel}
		}, context.Canceled, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			st := phaseStore(t, tc.budget)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := fillStore(ctx, st, tc.rd(cancel), record.KeyCodec{}, n)
			if !errors.Is(err, tc.is) || !strings.Contains(err.Error(), tc.says) {
				t.Fatalf("err = %v, want %v saying %q", err, tc.is, tc.says)
			}
			if got := st.Pool.FreeBuffers(); got != phaseBuffers {
				t.Errorf("%d buffers back in the pool, want all %d", got, phaseBuffers)
			}
		})
	}
}

// rawGen generates the records of raw, by index.
type rawGen []byte

func (g rawGen) Gen(rec []byte, i int64) { copy(rec, g[i*int64(len(rec)):]) }
func (rawGen) Name() string              { return "raw" }

// failingWriter is a library sink that records what it was written, fails
// its k-th write with errOutput when fail is set, and calls cancel, when
// non-nil, at its k-th write.
type failingWriter struct {
	recordingSink
	k, writes int
	fail      bool
	cancel    context.CancelFunc
}

func (w *failingWriter) Open(int) (RecordWriter, error) { return w, nil }
func (w *failingWriter) Write(c record.Slice) error {
	if w.writes++; w.writes == w.k {
		if w.cancel != nil {
			w.cancel()
		}
		if w.fail {
			return errOutput
		}
	}
	return w.recordingSink.Write(c)
}

// TestDrainStages: the staged drain fails with a store read's fault, an
// order violation (a swapped pair), a multiset violation (a flipped bit),
// the writer's error and the context's cancellation mid-phase; the writer
// saw every chunk before the bad one and none after it, was aborted and
// never closed, and every buffer is back in the pool each time.
func TestDrainStages(t *testing.T) {
	const n = 8*64 - 5
	g := record.Sorted{Seed: 1} // keys equal the column-major index
	drain := func(t *testing.T, budget int64, edit func(st *pdm.Store), w *failingWriter) (*pdm.Store, error) {
		st := phaseStore(t, budget)
		if err := st.Fill(g); err != nil {
			t.Fatal(err)
		}
		edit(st)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if w.cancel != nil {
			w.cancel = cancel
		}
		return st, egress(w, phaseZ, record.KeyCodec{}, record.OfGenerated(g, n, phaseZ),
			func(emit func(record.Slice) error) (record.Checksum, error) {
				return verify.Drain(ctx, st, n, emit)
			})
	}
	ok, err := drain(t, -1, func(*pdm.Store) {}, &failingWriter{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ok.Pool.FreeBuffers(); got != phaseBuffers {
		t.Fatalf("a successful drain left %d buffers in the store's pool, want %d", got, phaseBuffers)
	}
	for _, tc := range []struct {
		name   string
		budget int64
		edit   func(st *pdm.Store)
		w      failingWriter
		check  func(err error) bool
		seen   int // records the writer must have seen; -1: any prefix of the output
	}{
		{"read", 2 * 64 * phaseZ, func(*pdm.Store) {}, failingWriter{},
			func(err error) bool { return errors.Is(err, faultinject.ErrInjected) }, -1},
		{"order", -1, func(st *pdm.Store) {
			editRows(t, st, 2, 10, 2, func(recs record.Slice) {
				a := append([]byte(nil), recs.Record(0)...)
				recs.CopyRecord(0, recs, 1)
				copy(recs.Record(1), a)
			})
		}, failingWriter{}, func(err error) bool {
			var ve *verify.Error
			return errors.As(err, &ve) && ve.Kind == "order violation" && ve.Column == 2 && ve.Row == 11
		}, 2 * 64},
		{"multiset", -1, func(st *pdm.Store) {
			editRows(t, st, 3, 20, 1, func(recs record.Slice) { recs.Data[phaseZ-1] ^= 1 })
		}, failingWriter{}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "multiset differs") }, n},
		{"emit", -1, func(*pdm.Store) {}, failingWriter{k: 3, fail: true},
			func(err error) bool { return errors.Is(err, errOutput) }, 2 * 64},
		{"cancel", -1, func(*pdm.Store) {}, failingWriter{k: 2, cancel: func() {}},
			func(err error) bool { return errors.Is(err, context.Canceled) }, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			w := tc.w
			st, err := drain(t, tc.budget, tc.edit, &w)
			if !tc.check(err) {
				t.Fatalf("err = %v", err)
			}
			seen := len(w.recs) / phaseZ
			if tc.seen >= 0 && seen != tc.seen {
				t.Errorf("the writer saw %d records, want %d", seen, tc.seen)
			}
			if sorted := genRaw(n, phaseZ, g); tc.name != "multiset" && !bytes.HasPrefix(sorted, w.recs) {
				t.Errorf("the writer's %d records are not the output's first", seen)
			}
			if !w.aborted || w.closed {
				t.Errorf("writer aborted=%v closed=%v, want aborted and not closed", w.aborted, w.closed)
			}
			if got := st.Pool.FreeBuffers(); got != phaseBuffers {
				t.Errorf("%d buffers back in the pool, want all %d", got, phaseBuffers)
			}
		})
	}
}

// armedDisk corrupts, once armed, the first read that comes back: edit
// rewrites its bytes.
type armedDisk struct {
	pdm.Disk
	armed, done *atomic.Bool
	edit        func(p []byte)
}

func (d armedDisk) ReadAt(p []byte, off int64) error {
	err := d.Disk.ReadAt(p, off)
	if err == nil && d.armed.Load() && d.done.CompareAndSwap(false, true) {
		d.edit(p)
	}
	return err
}

// testBackend builds memory disks through wrap, which sees each disk's
// creation ordinal.
type testBackend struct {
	made *atomic.Int64
	wrap func(d pdm.Disk, ordinal int64) pdm.Disk
}

func (b testBackend) NewDisk(int) (pdm.Disk, error) {
	return b.wrap(pdm.NewMemDisk(), b.made.Add(1)-1), nil
}

// armingSink arms a corruption when the egress opens it: after the sort's
// last pass, before the drain's first read.
type armingSink struct {
	failingWriter
	armed *atomic.Bool
}

func (s *armingSink) Open(int) (RecordWriter, error) {
	s.armed.Store(true)
	return &s.failingWriter, nil
}

// TestSortStagedPhaseErrors: a Sort below the bound fails with the error of
// each phase's stages — the input's at record k, a faulty disk's on the
// ingest's first store write, an order violation and a multiset violation
// in the output store, the writer's — and with the context's cancellation
// mid-drain, leaking no goroutine.
func TestSortStagedPhaseErrors(t *testing.T) {
	const n = 1<<13 - 100
	raw := genRaw(n, phaseZ, record.Uniform{Seed: 6})
	swap := func(p []byte) {
		a := append([]byte(nil), p[10*phaseZ:11*phaseZ]...)
		copy(p[10*phaseZ:], p[11*phaseZ:12*phaseZ])
		copy(p[11*phaseZ:], a)
	}
	flip := func(p []byte) { p[6*phaseZ-1] ^= 1 }
	for _, tc := range []struct {
		name  string
		src   Source
		fault int64        // budget of the first store's disks; < 0: none
		edit  func([]byte) // the drain's first read, when non-nil
		w     failingWriter
		check func(err error) bool
	}{
		{"ingest-read", FromReader(failingAt(raw, 1234), n), -1, nil, failingWriter{},
			func(err error) bool {
				return errors.Is(err, errInput) && strings.Contains(err.Error(), "input record 1234")
			}},
		{"ingest-write", FromBytes(raw), 0, nil, failingWriter{},
			func(err error) bool { return errors.Is(err, faultinject.ErrInjected) }},
		{"drain-order", FromBytes(raw), -1, swap, failingWriter{}, func(err error) bool {
			var ve *verify.Error
			return errors.As(err, &ve) && ve.Kind == "order violation"
		}},
		{"drain-multiset", FromBytes(raw), -1, flip, failingWriter{},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "multiset differs") }},
		{"drain-emit", FromBytes(raw), -1, nil, failingWriter{k: 2, fail: true},
			func(err error) bool { return errors.Is(err, errOutput) }},
		{"drain-cancel", FromBytes(raw), -1, nil, failingWriter{k: 2, cancel: func() {}},
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			s := newSorter(t, 4, 1<<10, phaseZ)
			defer s.Close()
			var armed, done atomic.Bool
			d := s.m.D
			s.m.Backend = testBackend{made: new(atomic.Int64), wrap: func(disk pdm.Disk, ordinal int64) pdm.Disk {
				if ordinal < int64(d) && tc.fault >= 0 {
					disk = &faultinject.FaultDisk{Inner: disk, Budget: tc.fault}
				}
				if tc.edit != nil {
					disk = armedDisk{Disk: disk, armed: &armed, done: &done, edit: tc.edit}
				}
				return disk
			}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &armingSink{failingWriter: tc.w, armed: &armed}
			if sink.cancel != nil {
				sink.cancel = cancel
			}
			res, err := s.Sort(ctx, tc.src, sink)
			if err == nil {
				res.Close()
			}
			if !tc.check(err) {
				t.Fatalf("err = %v", err)
			}
			if sink.closed {
				t.Error("a failed Sort closed its writer")
			}
		})
	}
}
