package pdm

import (
	"context"
	"fmt"
	"sync"

	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// Layout names how the rows of each column of an r×s matrix are assigned to
// processors. There is ONE assignment, keyed by the group size G: the P
// processors form P/G groups of G, column j is owned by group j mod (P/G),
// and member m of that group holds rows [m·r/G, (m+1)·r/G). The three names
// are what plans and benchmarks print and pass for its three ranges of G.
type Layout int

const (
	// ColumnOwned is G = 1, the paper's layout for threaded and subblock
	// columnsort: processor j mod P owns all of column j, stored
	// contiguously (striped across its own disks). With columns assigned
	// round-robin this is also the PDM striped ordering at column
	// granularity, so the final output satisfies footnote 6.
	ColumnOwned Layout = iota
	// RowBlocked is G = P, M-columnsort's layout: every processor owns an
	// equal contiguous block of rows of every column (processor p holds rows
	// [p·r/P, (p+1)·r/P)), since a column of r = M records is shared by the
	// whole cluster.
	RowBlocked
	// GroupBlocked is every G in between, hybrid group columnsort's layout.
	GroupBlocked
)

func (l Layout) String() string {
	switch l {
	case ColumnOwned:
		return "column-owned"
	case RowBlocked:
		return "row-blocked"
	case GroupBlocked:
		return "group-blocked"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// Store is an r×s record matrix resident on the cluster's disks.
type Store struct {
	R, S    int
	RecSize int
	P       int
	G       int          // processors sharing a column
	Layout  Layout       // the name G goes by
	Arrays  []*DiskArray // one per processor
	// Pool, when non-nil, lends the staged scans (FillRows, StreamRows)
	// their segment buffers: a machine's stores share its processor-0
	// pool, so a warm engine scans without allocating.
	Pool *record.Pool

	closeOnce sync.Once
	closeErr  error
}

// NewGroupStore validates the shape against the group size g and wraps the
// arrays.
func NewGroupStore(r, s, recSize, p, g int, arrays []*DiskArray) (*Store, error) {
	if err := record.CheckSize(recSize); err != nil {
		return nil, err
	}
	if len(arrays) != p {
		return nil, fmt.Errorf("pdm: %d arrays for %d processors", len(arrays), p)
	}
	if g < 1 || p%g != 0 {
		return nil, fmt.Errorf("pdm: group size %d must divide P=%d", g, p)
	}
	if r%g != 0 {
		return nil, fmt.Errorf("pdm: G=%d must divide r=%d", g, r)
	}
	if s%(p/g) != 0 {
		return nil, fmt.Errorf("pdm: the %d groups must evenly share s=%d columns", p/g, s)
	}
	layout := GroupBlocked
	switch g {
	case 1:
		layout = ColumnOwned
	case p:
		layout = RowBlocked
	}
	return &Store{R: r, S: s, RecSize: recSize, P: p, G: g, Layout: layout, Arrays: arrays}, nil
}

// Owner returns the processor owning row i of column j.
func (st *Store) Owner(i, j int) int {
	ng := st.P / st.G
	return (j%ng)*st.G + i/(st.R/st.G)
}

// OwnedRows returns the half-open row range of column j stored on
// processor p; empty when p owns none of the column.
func (st *Store) OwnedRows(p, j int) (lo, hi int) {
	ng := st.P / st.G
	if j%ng != p/st.G {
		return 0, 0
	}
	m := p % st.G
	rb := st.R / st.G
	return m * rb, (m + 1) * rb
}

// offset computes the logical byte offset, within processor p's array, of
// (row, col) — which must be owned by p (checked by callers via OwnedRows).
// A processor stores its blocks of its group's columns back to back.
func (st *Store) offset(p, row, col int) int64 {
	ng := st.P / st.G
	slot := int64(col / ng)
	rb := int64(st.R / st.G)
	m := int64(p % st.G)
	return (slot*rb + int64(row) - m*rb) * int64(st.RecSize)
}

// ReadRows reads rows [rowLo, rowLo+dst.Len()) of column j from processor
// p's disks into dst. The range must lie within p's owned rows.
func (st *Store) ReadRows(cnt *sim.Counters, p, j, rowLo int, dst record.Slice) error {
	if err := st.checkRange(p, j, rowLo, dst.Len()); err != nil {
		return err
	}
	if dst.Size != st.RecSize {
		return fmt.Errorf("pdm: buffer record size %d != store %d", dst.Size, st.RecSize)
	}
	return st.Arrays[p].ReadAt(cnt, dst.Data, st.offset(p, rowLo, j))
}

// WriteRows writes src into rows [rowLo, rowLo+src.Len()) of column j on
// processor p's disks.
func (st *Store) WriteRows(cnt *sim.Counters, p, j, rowLo int, src record.Slice) error {
	if err := st.checkRange(p, j, rowLo, src.Len()); err != nil {
		return err
	}
	if src.Size != st.RecSize {
		return fmt.Errorf("pdm: buffer record size %d != store %d", src.Size, st.RecSize)
	}
	return st.Arrays[p].WriteAt(cnt, src.Data, st.offset(p, rowLo, j))
}

// PrefetchRows hints processor p's disks to stage rows [rowLo, rowLo+n) of
// column j ahead of the ReadRows that will consume them. Advisory: rows not
// owned by p, or disks without an async layer, make it a no-op.
func (st *Store) PrefetchRows(p, j, rowLo, n int) {
	if n <= 0 || st.checkRange(p, j, rowLo, n) != nil {
		return
	}
	st.Arrays[p].Prefetch(st.offset(p, rowLo, j), n*st.RecSize)
}

// Flush drains processor p's write-behind queues, surfacing any deferred
// write error. Passes call it when their write stage completes so a
// background failure is attributed to the pass that issued the writes.
func (st *Store) Flush(p int) error {
	if p < 0 || p >= st.P {
		return fmt.Errorf("pdm: processor %d out of range", p)
	}
	return st.Arrays[p].Flush()
}

func (st *Store) checkRange(p, j, rowLo, n int) error {
	if p < 0 || p >= st.P {
		return fmt.Errorf("pdm: processor %d out of range", p)
	}
	if j < 0 || j >= st.S {
		return fmt.Errorf("pdm: column %d out of range (s=%d)", j, st.S)
	}
	lo, hi := st.OwnedRows(p, j)
	if rowLo < lo || rowLo+n > hi {
		return fmt.Errorf("pdm: rows [%d,%d) of column %d not owned by processor %d (owns [%d,%d), layout %v)",
			rowLo, rowLo+n, j, p, lo, hi, st.Layout)
	}
	return nil
}

// ReadColumn reads the whole of column j (ColumnOwned only) into dst.
func (st *Store) ReadColumn(cnt *sim.Counters, p, j int, dst record.Slice) error {
	if st.Layout != ColumnOwned {
		return fmt.Errorf("pdm: ReadColumn requires column-owned layout")
	}
	if dst.Len() != st.R {
		return fmt.Errorf("pdm: column buffer holds %d records, want r=%d", dst.Len(), st.R)
	}
	return st.ReadRows(cnt, p, j, 0, dst)
}

// WriteColumn writes the whole of column j (ColumnOwned only) from src.
func (st *Store) WriteColumn(cnt *sim.Counters, p, j int, src record.Slice) error {
	if st.Layout != ColumnOwned {
		return fmt.Errorf("pdm: WriteColumn requires column-owned layout")
	}
	if src.Len() != st.R {
		return fmt.Errorf("pdm: column buffer holds %d records, want r=%d", src.Len(), st.R)
	}
	return st.WriteRows(cnt, p, j, 0, src)
}

// Machine describes the simulated cluster hardware: P processors, D disks
// (P | D), a striping unit, and the disk backend.
type Machine struct {
	P           int
	D           int
	StripeBytes int
	Backend     Backend

	// SpillBackend, when non-nil, builds the standalone spill disks of
	// hierarchical runs instead of Backend. A checkpointed job points it at
	// a keep-on-close FileBackend in its manifest directory, so spilled
	// runs become durable state a resume can reopen while the array disks
	// (input stores, pipeline scratch) stay ordinary scratch.
	SpillBackend Backend

	// Pools, when non-nil, holds one buffer pool per processor — the
	// machine's node-local memory. Runs sharing a Machine then also share
	// warm buffer pools, so repeated sorts on one Sorter allocate only on
	// their first pass. Nil machines get per-run pools.
	Pools []*record.Pool

	// Async, when non-nil, wraps every disk in an AsyncDisk: reads follow
	// the passes' prefetch hints and writes retire in the background (see
	// async.go). Operation accounting is unchanged by the wrapper.
	Async *AsyncConfig

	// Delay, when non-nil, imposes a per-operation service time on every
	// disk (below the async layer, so write-behind and prefetch genuinely
	// hide it), modeling physical disks on page-cached hardware.
	Delay *DelayConfig

	// Heads, when non-nil, holds the D service-time heads the spilled runs
	// of ONE job charge, so all the spills of a job together move at most D
	// disks' modeled bandwidth, in run formation and in the merge alike (see
	// stripedDisk). Lane l of spill idx charges Heads[(idx+l) mod D]:
	// consecutive spills start on consecutive disks, so runs shorter than a
	// row of stripes do not pile up on disk 0. Meaningful only with Delay;
	// without it each spill lane models a head of its own. Array disks are
	// not affected: each models its own head, as ever.
	Heads []*Head

	// Inject, when non-nil, wraps every disk in the fault layer it returns
	// (below the context layer, standing in for the failing hardware). Only
	// tests set it, through WithInjector on the job's context.
	Inject Injector

	// CopyFabric selects the copying interconnect: message payloads are
	// deep-copied through a fabric pool at send time instead of transferring
	// buffer ownership. No job sets it — it is the reference the
	// ownership-transfer fabric is tested against (core.TestFabricEquivalence:
	// same bytes, same operation counts).
	CopyFabric bool
}

// DefaultStripeBytes is the striping unit used when none is specified.
const DefaultStripeBytes = 64 << 10

// Namespaced returns a copy of the machine whose file backend prefixes every
// scratch file it creates with ns (FileBackend.Prefix; memory disks share no
// location and need none). An engine running concurrent jobs gives each
// job's machine copy its own namespace so the jobs' scratch files can never
// collide in a shared directory and leftovers are attributable.
func (m Machine) Namespaced(ns string) Machine {
	if b, ok := m.Backend.(FileBackend); ok {
		b.Prefix = ns
		m.Backend = b
	}
	return m
}

// NewArrays builds the per-processor disk arrays: processor p owns disks
// {p, p+P, p+2P, ...}, matching the paper's disk-ownership rule.
func (m Machine) NewArrays() ([]*DiskArray, error) {
	if m.P < 1 || m.D < m.P || m.D%m.P != 0 {
		return nil, fmt.Errorf("pdm: need P ≥ 1 and P | D, got P=%d D=%d", m.P, m.D)
	}
	stripe := m.StripeBytes
	if stripe == 0 {
		stripe = DefaultStripeBytes
	}
	backend := m.Backend
	if backend == nil {
		backend = MemBackend{Pools: m.Pools}
	}
	arrays := make([]*DiskArray, m.P)
	for p := 0; p < m.P; p++ {
		disks := make([]Disk, m.D/m.P)
		for k := range disks {
			d, err := backend.NewDisk(p + k*m.P)
			if err != nil {
				return nil, err
			}
			disks[k] = m.diskStack(d, p+k*m.P, 0, false)
		}
		arrays[p] = NewDiskArray(disks, stripe)
	}
	return arrays, nil
}

// NewSpillDisk builds the disk of one hierarchical-merge run on the
// machine's spill backend, wrapped by WrapSpillDisk. idx only names the
// backing file (and keys an injector's scripted faults); the backend's
// generation suffix keeps concurrent spills distinct. The caller owns Close
// (which removes a file-backed spill).
func (m Machine) NewSpillDisk(idx int) (Disk, error) {
	backend := m.SpillBackend
	if backend == nil {
		backend = m.Backend
	}
	if backend == nil {
		backend = MemBackend{Pools: m.Pools}
	}
	d, err := backend.NewDisk(idx)
	if err != nil {
		return nil, err
	}
	return m.WrapSpillDisk(d, idx), nil
}

// WrapSpillDisk builds the machine's spill stack over one backing disk — the
// one constructor behind a fresh spill (NewSpillDisk) and a checkpoint run
// the resume path reopened. Where the machine has a per-disk layer to
// multiply (an async layer or a disk model) and D > 1, the run is striped
// over D lanes, each with the machine's delay → injector → context → async
// stack of its own (see stripedDisk): run writes retire, and run reads are
// staged, on D disks at once. Otherwise the stack sits on the backing disk directly —
// with neither layer there is nothing per-disk to stripe.
func (m Machine) WrapSpillDisk(d Disk, idx int) Disk {
	if m.D > 1 && (m.Async != nil || m.Delay != nil) {
		stripe := m.StripeBytes
		if stripe == 0 {
			stripe = DefaultStripeBytes
		}
		return newStripedDisk(d, m.D, stripe, func(view Disk, lane int) Disk {
			return m.diskStack(view, idx, lane, true)
		})
	}
	return m.diskStack(d, idx, 0, true)
}

// diskStack is the one constructor of the machine's per-disk stack, for an
// array disk (global index idx, lane 0) and for lane `lane` of spill idx
// alike: the fault layers, then the async layer on top, its buffers drawn
// from processor (idx+lane) mod P's pool — the owning processor of an array
// disk, the processors in turn for a spill's lanes.
func (m Machine) diskStack(d Disk, idx, lane int, spill bool) Disk {
	d = m.wrapFaultLayers(d, idx, lane, spill)
	if m.Async != nil {
		cfg := *m.Async
		if cfg.Pool == nil && m.Pools != nil {
			cfg.Pool = m.Pools[(idx+lane)%m.P]
		}
		d = NewAsyncDisk(d, cfg)
	}
	return d
}

// wrapFaultLayers stacks the service-time model, the injector, and the
// context layer under one disk, in that order: delay models the physical
// disk, an injected layer stands in for its failures, and opDisk names
// every failure with its operation, disk and extent before the async layer
// above can latch it. A spill lane charges one of the machine's shared
// heads (see Machine.Heads), when it has them; an array disk (lane 0) a
// head of its own.
func (m Machine) wrapFaultLayers(d Disk, idx, lane int, spill bool) Disk {
	if m.Delay != nil {
		head := new(Head)
		if spill && len(m.Heads) > 0 {
			head = m.Heads[(idx+lane)%len(m.Heads)]
		}
		d = newDelayDisk(d, *m.Delay, head)
	}
	if m.Inject != nil {
		d = m.Inject(d, idx, lane, spill)
	}
	return opDisk{d, idx, spill}
}

// NewStore allocates a fresh store for an r×s matrix under a layout name:
// ColumnOwned is G = 1 and RowBlocked is G = P.
func (m Machine) NewStore(r, s, recSize int, layout Layout) (*Store, error) {
	switch layout {
	case ColumnOwned:
		return m.NewGroupStore(r, s, recSize, 1)
	case RowBlocked:
		return m.NewGroupStore(r, s, recSize, m.P)
	case GroupBlocked:
		return nil, fmt.Errorf("pdm: group-blocked stores need NewGroupStore")
	}
	return nil, fmt.Errorf("pdm: unknown layout %v", layout)
}

// NewGroupStore allocates a fresh store for group size g on new arrays.
func (m Machine) NewGroupStore(r, s, recSize, g int) (*Store, error) {
	arrays, err := m.NewArrays()
	if err != nil {
		return nil, err
	}
	st, err := NewGroupStore(r, s, recSize, m.P, g, arrays)
	if err == nil && m.Pools != nil {
		st.Pool = m.Pools[0]
	}
	return st, err
}

// Close closes every array of the store. It is idempotent: the run loop
// releases consumed intermediate stores as soon as their pass completes,
// and error paths may close the same store again.
func (st *Store) Close() error {
	st.closeOnce.Do(func() {
		for _, a := range st.Arrays {
			if err := a.Close(); err != nil && st.closeErr == nil {
				st.closeErr = err
			}
		}
	})
	return st.closeErr
}

// Fill populates the store from a generator, assigning global index
// j·r + i to the record at (row i, column j) — i.e. generator order is
// column-major, matching the input convention of the sorters.
func (st *Store) Fill(g record.Generator) error {
	return st.FillRows(context.Background(), func(j, lo int, chunk record.Slice) error {
		record.Fill(chunk, g, int64(j)*int64(st.R)+int64(lo))
		return nil
	})
}

// A RowVisitor sees the records of rows lo… of column j in a chunk of a
// staged scan; it may use the chunk until it returns.
type RowVisitor func(j, lo int, chunk record.Slice) error

// FillRows is StreamRows' writing counterpart: fill writes every owned
// segment's rows, in global column-major order on the chain's source — it
// must overwrite the whole chunk, since the buffer is not zeroed — each of
// stages then sees the chunk on a goroutine of its own, and the chunk is
// written to rows lo… of column j. Every processor is flushed at the end.
// Nothing is prefetched — the store is being written, not read: on an
// AsyncDisk a hint would end the write phase.
func (st *Store) FillRows(ctx context.Context, fill RowVisitor, stages ...RowVisitor) error {
	var cnt sim.Counters
	err := st.stream(ctx, func(c *rowChunk, _ []segment) (bool, error) {
		return true, fill(c.j, c.lo, c.recs)
	}, append(stages[:len(stages):len(stages)], func(j, lo int, chunk record.Slice) error {
		return st.WriteRows(&cnt, st.Owner(lo, j), j, lo, chunk)
	}))
	for p := 0; err == nil && p < st.P; p++ {
		err = st.Flush(p)
	}
	return err
}

// StreamRows reads the store's first n records in global column-major
// order — the order in which the sorted records appear — one owned segment
// at a time, prefetching the next segment it will read before it reads
// one, so on async-backed disks the read overlaps the visitors. Each of
// the visitors (at least one) sees every chunk in order, trimmed to the
// first n records, on a goroutine of its own; the store's scans (Snapshot,
// Checksum, verification, the output drain) are built on it.
func (st *Store) StreamRows(ctx context.Context, n int64, visits ...RowVisitor) error {
	var cnt sim.Counters
	return st.stream(ctx, func(c *rowChunk, next []segment) (bool, error) {
		if len(next) > 0 && n > int64(c.hi-c.lo) {
			st.PrefetchRows(next[0].p, next[0].j, next[0].lo, next[0].hi-next[0].lo)
		}
		if err := st.ReadRows(&cnt, c.p, c.j, c.lo, c.recs); err != nil {
			return false, err
		}
		c.recs = c.recs.Sub(0, int(min(int64(c.recs.Len()), n)))
		n -= int64(c.recs.Len())
		return n > 0, nil
	}, visits)
}

// stream is the one chain of the store's staged scans, over a free list of
// segment buffers from the store's pool: src fills each owned segment's
// chunk, in global column-major order, on the source goroutine — next is
// the segments after it — and says whether the scan goes on; each visitor
// runs on a goroutine of its own.
// A visitor's error travels with its chunk to the last visitor, which
// fails the chain there, so every chunk before it is visited to the end;
// the first failure, or ctx's end, stops every stage and is what stream
// returns.
func (st *Store) stream(ctx context.Context, src func(c *rowChunk, next []segment) (more bool, err error), visits []RowVisitor) error {
	rows := st.R / st.G
	depth := len(visits) + 1
	free := pipeline.NewFreeList(depth, func() *rowChunk { return &rowChunk{buf: st.Pool.Get(rows, st.RecSize)} })
	defer free.Release(func(c *rowChunk) { st.Pool.Put(c.buf) })
	g := pipeline.NewGroup(ctx)
	segs := st.segments()
	source := func(send func(*rowChunk) error) error {
		for i, sg := range segs {
			if err := ctx.Err(); err != nil {
				return err
			}
			c, err := free.Get(g.Context())
			if err != nil {
				return err
			}
			c.segment, c.recs, c.err = sg, c.buf.Sub(0, sg.hi-sg.lo), nil
			more, err := src(c, segs[i+1:])
			if err != nil {
				return err
			}
			if err := send(c); err != nil || !more {
				return err
			}
		}
		return nil
	}
	stages := make([]pipeline.Stage[*rowChunk], len(visits)-1)
	for k, visit := range visits[:len(visits)-1] {
		stages[k] = func(c *rowChunk) (*rowChunk, error) {
			if c.err == nil {
				c.err = visit(c.j, c.lo, c.recs)
			}
			return c, nil
		}
	}
	// The channels are as deep as the free list, so no send blocks: only
	// the source waits, for a free buffer.
	last := visits[len(visits)-1]
	pipeline.Chain(g, depth, source, free.Sink(func(c *rowChunk) error {
		if c.err != nil {
			return c.err
		}
		return last(c.j, c.lo, c.recs)
	}), stages...)
	return g.Wait()
}

// rowChunk is one owned segment in flight through a staged scan.
type rowChunk struct {
	segment
	buf  record.Slice // the whole buffer, from the store's pool
	recs record.Slice // the segment's rows in buf
	err  error        // a visitor's verdict, carried to the last one
}

// segment is one processor's owned rows [lo, hi) of column j.
type segment struct{ p, j, lo, hi int }

// segments lists the store's owned segments in global column-major order —
// the order in which the sorted records appear.
func (st *Store) segments() []segment {
	segs := make([]segment, 0, st.S*st.P)
	for j := 0; j < st.S; j++ {
		for p := 0; p < st.P; p++ {
			if lo, hi := st.OwnedRows(p, j); lo < hi {
				segs = append(segs, segment{p, j, lo, hi})
			}
		}
	}
	return segs
}

// Snapshot reads the whole matrix into memory (tests and verification).
func (st *Store) Snapshot() (record.Slice, error) {
	out := record.Make(st.R*st.S, st.RecSize)
	err := st.StreamRows(context.Background(), int64(st.R)*int64(st.S), func(j, lo int, chunk record.Slice) error {
		out.Sub(j*st.R+lo, j*st.R+lo+chunk.Len()).Copy(chunk)
		return nil
	})
	if err != nil {
		return record.Slice{}, err
	}
	return out, nil
}

// Checksum computes the order-independent multiset checksum of the store's
// contents without holding more than a few segments in memory.
func (st *Store) Checksum() (record.Checksum, error) {
	var c record.Checksum
	err := st.StreamRows(context.Background(), int64(st.R)*int64(st.S), func(_, _ int, chunk record.Slice) error {
		c.AddSlice(chunk)
		return nil
	})
	return c, err
}
