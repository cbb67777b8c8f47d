package colsort

// Hierarchical execution: the layer that takes Sort past any single
// columnsort run's problem-size bound. When n exceeds what one run can hold
// (the algorithm's restriction, or a WithMaxMemory cap), the source stream
// is cut into sorted runs by batched replacement selection over a resident
// set one run plan's records large (internal/runform: sorted chunks split at
// the run's last record, merged as mini-runs), each run spilled CRC-framed
// and verified; and the runs are combined by a loser-tree k-way
// merge with prefetch on the run reads and write-behind on the merged
// output, streaming straight into the Sink — no extra materialization
// pass. The columnsort engine is not on this path: the paper's passes run
// below the bound, replacement selection + merge above it. See DESIGN.md §7
// and §12.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"

	"context"

	"colsort/internal/core"
	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/runform"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// defaultMergeFanIn is the runs-per-merge bound when WithMergeFanIn is not
// given: wide enough that inputs dozens of times the bound merge in one
// level, narrow enough that the read streams' prefetch buffers stay small.
const defaultMergeFanIn = 16

// defaultRedoBudget is how many run redos a hierarchical sort may spend
// when RetryPolicy does not set one: enough to survive a failed spill disk
// plus one unlucky verification, small enough that a systematically failing
// storage stack still fails the sort promptly.
const defaultRedoBudget = 2

// formationName is what MergeStats.Formation and the manifest's begin entry
// record. There is one way to form runs; the fields stay so that Result JSON
// and manifest.wal lines remain what earlier builds wrote and read.
const formationName = "replacement-select"

// mergeChunkRecs sizes the per-run read chunk and the emit chunk of the
// merges: half a column buffer by default, shrunk so that a merge's
// fanIn + 4 chunks — fanIn reader frames, the 3 chunks cycling through its
// pop, verify and emit stages, and the job's run-writer frame — stay within
// a WithMaxMemory cap, clamped so chunks stay large enough to amortize
// per-chunk costs yet bounded in memory. The cap m is divided step by step,
// ⌊⌊m/z⌋/(fanIn+4)⌋, which equals ⌊m/((fanIn+4)·z)⌋ but never forms that
// product: any fan-in ≥ 2 is legal, and a huge one would overflow it.
func (e *Engine) mergeChunkRecs(o sortOptions, fanIn int) int {
	c := e.cfg.MemPerProc / 2
	if o.maxMemory > 0 {
		if byBudget := uint64(o.maxMemory/int64(e.cfg.RecordSize)) / (uint64(fanIn) + 4); byBudget < uint64(c) {
			c = int(byBudget)
		}
	}
	if c < 64 {
		c = 64
	}
	if c > 1<<16 {
		c = 1 << 16
	}
	return c
}

// hierRun is one live run of a hierarchical sort and the manifest id that
// names it (0 when the job is not checkpointed).
type hierRun struct {
	run *merge.Run
	id  int
}

// hierJob owns ALL the state of one hierarchical sort: what was asked
// (options, codec, n, the run plan), what that resolves to (fan-in, merge
// chunk, the redo policy), and what the sort accumulates — the spill-disk
// sequence, the ingest checksum, stats, the manifest log and the live run
// set. The phases are its methods; the run set is closed once,
// by sortHierarchical's defer, on every path.
type hierJob struct {
	*job
	o     sortOptions
	codec record.KeyCodec
	n     int64
	runPl core.Plan

	fanIn, chunk int
	pool         *record.Pool // chunk buffers: formation's pipeline, the merges' run readers

	// Recovery policy: how many times a run may be re-produced and
	// re-spilled, and whether every spilled run gets a post-spill CRC
	// readback. The scrub is always on under chaos injection (the only way
	// a torn spill write is caught while its run can still be redone) and
	// opt-in otherwise — on healthy storage it costs one extra sequential
	// read of every spilled byte to detect nothing.
	redoBudget int
	scrub      bool

	// ckpt is the manifest WAL under WithCheckpoint; nil otherwise (see
	// manifestLog for what a nil log still answers).
	ckpt *manifestLog

	spillSeq   int             // next spill-disk ordinal: one sequence for formation, redos and merge outputs
	w          *merge.Writer   // the job's one run writer (and frame buffer), armed on a disk per spill
	live       []hierRun       // the current run set, in merge order
	want       record.Checksum // ingest multiset, in the codec's normalized key space
	stats      *MergeStats
	formSpill  int64 // bytes the formation phase spilled, before any merge traffic
	mergedBase int64 // records emitted by the completed intermediate merges
	resumed    bool  // formation happened in a previous process; this one only merges
}

// newHierJob resolves the options of a hierarchical sort of n records in
// runPl-sized runs into the job value its phases run on. The caller has
// already compiled the codec, validated the options and chosen runPl.
func (j *job) newHierJob(o sortOptions, codec record.KeyCodec, n int64, runPl core.Plan) *hierJob {
	h := &hierJob{job: j, o: o, codec: codec, n: n, runPl: runPl, pool: j.m.Pools[0],
		fanIn: o.fanIn, redoBudget: defaultRedoBudget, scrub: j.m.Chaos != nil}
	if h.fanIn == 0 {
		h.fanIn = defaultMergeFanIn
	}
	h.chunk = j.e.mergeChunkRecs(o, h.fanIn)
	h.w = merge.NewWriter(nil, j.e.cfg.RecordSize, h.chunk)
	h.stats = &MergeStats{FanIn: h.fanIn, RunRecords: runPl.N, Formation: formationName}
	if o.retry != nil {
		if o.retry.RedoBudget != 0 {
			h.redoBudget = max(o.retry.RedoBudget, 0)
		}
		h.scrub = h.scrub || o.retry.Scrub
	}
	return h
}

// sortHierarchical executes the runs-plus-merge plan for the records
// arriving on rd, streaming the merged output into dst (non-nil, checked by
// the caller); rd is closed by the caller.
//
// Under WithCheckpoint the manifest the checkpoint directory already holds
// is read first (resume): when it is this job's, with formation complete,
// the live runs it records are adopted — formation is skipped entirely,
// zero records are read or re-sorted — and the merge restarts from the
// durable run set.
func (h *hierJob) sortHierarchical(ctx context.Context, rd RecordReader, dst Sink) (*Result, error) {
	defer h.closeRuns()
	defer func() { h.ckpt.close() }() // failure path: keep state, release the handle
	if h.o.checkpoint != "" {
		if err := h.resume(); err != nil {
			return nil, err
		}
	}

	// A resume skips formation: every run is durable and verified; nothing
	// is ingested or sorted in this process.
	if !h.resumed {
		if err := h.formReplacementRuns(ctx, rd); err != nil {
			return nil, err
		}
		// Durability point: formation is complete and every run durable;
		// after this entry a resume never re-sorts a single record.
		if err := h.ckpt.logIngestDone(h.want); err != nil {
			return nil, err
		}
	}
	h.stats.Runs = len(h.live)
	h.formSpill = h.stats.BytesWritten
	return h.mergePhase(ctx, dst)
}

// closeRuns closes every run still in the live set.
func (h *hierJob) closeRuns() {
	for i, r := range h.live {
		if r.run != nil {
			r.run.Close()
			h.live[i] = hierRun{}
		}
	}
}

// newSpill allocates the job's next spill disk and arms the job's writer on
// it. Formation runs, redone runs and merge outputs draw from the one
// sequence, so no two spills of a job share an ordinal (which names the file
// and keys the chaos scripts); they are written one at a time, so they also
// share one writer and its frame buffer.
func (h *hierJob) newSpill() (pdm.Disk, error) {
	d, err := h.m.NewSpillDisk(h.spillSeq)
	h.spillSeq++
	if err == nil {
		h.w.Reset(d)
	}
	return d, err
}

// commitRun admits a formed, verified run to the live set and accounts it.
func (h *hierJob) commitRun(run *merge.Run) error {
	h.live = append(h.live, hierRun{run: run})
	h.stats.BytesWritten += run.Bytes() // run formation's spill
	if run.Descending {
		h.stats.DownRuns++
	}
	if h.stats.MinRunRecords == 0 || run.Records < h.stats.MinRunRecords {
		h.stats.MinRunRecords = run.Records
	}
	if run.Records > h.stats.MaxRunRecords {
		h.stats.MaxRunRecords = run.Records
	}
	if h.ckpt == nil {
		return nil
	}
	// Durability point: the run's bytes (already scrubbed when armed) reach
	// stable storage before the manifest entry that claims them does.
	if err := pdm.SyncDisk(run.Disk); err != nil {
		return err
	}
	id, err := h.ckpt.logRun(run)
	h.live[len(h.live)-1].id = id
	return err
}

// Run formation is a pipeline of three stages, each on its own goroutine,
// joined by bounded channels of pooled chunk buffers (DESIGN.md §12):
//
//	ingest ──sorted chunks──▶ select ──formMsgs──▶ spill-and-commit
//
// The channel bounds are the memory bound: ingest's staging buffer, the
// sorted chunk it is handing over and the one select is admitting (back in
// the pool once copied into the former's pages), and three emit chunks (one
// filling, one queued, one being written).

// A formMsg is what the select stage hands the spill stage: the next chunk
// of the current run, or — with no chunk — that run's end and direction.
type formMsg struct {
	chunk record.Slice
	desc  bool
}

// formReplacementRuns is the run producer: variable-length sorted runs
// formed by the former, consuming the source stream directly. Records are
// encoded into normalized key space as they arrive and handed over as
// sorted chunks (ingest), the former's resident set (runPl.N records — the
// memory the job's admission lease charges) emits each run in its chosen
// direction (select, on the calling goroutine: the former, BreakRun and
// every Progress call stay here, in one order whatever the scheduler does),
// descending runs marked for the merge's backwards read, and each run is
// spilled, verified and committed in run order (spillRuns) while the next
// one is being selected. The engine's
// fabric is never involved: order comes from the former, and end-to-end
// verification from the merge's in-stream order check plus the final
// multiset comparison against the ingest checksum.
//
// The first failure of any stage — or the caller's cancellation — is the
// pipeline context's cause: it stops the other stages, every channel wait
// selects on it, and it is what the call returns, once both goroutines have
// exited. The ingest stage is the only code that touches rd, so the caller
// may then close it.
func (h *hierJob) formReplacementRuns(ctx context.Context, rd RecordReader) error {
	if h.runPl.N > math.MaxInt32 { // the former's arena indices are int32
		return fmt.Errorf("colsort: run plan of %d records exceeds the former's 2³¹−1 slots; set WithMaxMemory", h.runPl.N)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var stages sync.WaitGroup
	stage := func(run func() error) {
		stages.Add(1)
		go func() {
			defer stages.Done()
			if err := run(); err != nil {
				cancel(err)
			}
		}()
	}
	chunks := make(chan runform.Chunk)
	msgs := make(chan formMsg, 1)
	stage(func() error { return h.ingest(ctx, rd, chunks) })
	stage(func() error { return h.spillRuns(ctx, msgs) })
	h.selectRuns(ctx, chunks, msgs)
	close(msgs)
	stages.Wait()
	return context.Cause(ctx)
}

// ingest is the first formation stage and the only reader of rd: it reads
// the stream in chunks of the former's chunk length into its staging buffer,
// encodes each into normalized key space and folds it into the ingest
// checksum — before the sort, so the checksum fingerprints what was read —
// then has runform.SortChunk tally its key steps and radix-sort it into a
// pooled buffer, which it sends on; it closes the channel behind the last.
func (h *hierJob) ingest(ctx context.Context, rd RecordReader, out chan<- runform.Chunk) error {
	z := h.e.cfg.RecordSize
	stage := h.pool.Get(runform.ChunkLen(int(h.runPl.N)), z)
	defer h.pool.Put(stage)
	sc := sortalg.GetScratch()
	defer sortalg.PutScratch(sc)
	for idx := int64(0); idx < h.n; {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		buf := stage.Sub(0, int(min(int64(stage.Len()), h.n-idx)))
		got, err := readRecords(rd, buf)
		if err != nil {
			return fmt.Errorf("colsort: reading record %d: %w", idx+int64(got), err)
		}
		h.codec.Encode(buf)
		h.want.AddSlice(buf)
		idx += int64(got)
		c := runform.SortChunk(sc, h.pool.Get(got, z), buf)
		select {
		case out <- c:
		case <-ctx.Done():
			h.pool.Put(c.Recs)
			return context.Cause(ctx)
		}
	}
	close(out)
	return nil
}

// selectRuns is the middle formation stage: batched replacement selection
// over the ingested chunks, until the stream or ctx ends. The former admits
// the next sorted chunk — copying it into free pages, then putting its
// buffer back — whenever a chunk's worth of its pages is free, inside Fill
// on this goroutine: a rule of page state alone, so how far ingest has run
// ahead never changes a run. Each Fill goes into a fresh pooled
// h.chunk-record buffer that the spill stage recycles.
//
// With retention armed (see spillRuns) a run is cut at 2× the former's
// capacity — above the ~1.9× random input forms — so the memory a redo
// needs stays within two extra resident sets' worth, at the cost of splitting
// longer-than-expected runs while scrubbing.
func (h *hierJob) selectRuns(ctx context.Context, in <-chan runform.Chunk, out chan<- formMsg) {
	next := func() (runform.Chunk, error) {
		select {
		case c := <-in:
			return c, nil // no records once the ingest stage has closed the stream behind its last chunk
		case <-ctx.Done():
			return runform.Chunk{}, context.Cause(ctx)
		}
	}
	sent := func(m formMsg) bool {
		select {
		case out <- m:
			return true
		case <-ctx.Done():
			return false
		}
	}
	f := runform.NewChunked(int(h.runPl.N), h.e.cfg.RecordSize, h.pool, next)
	defer f.Close()
	var formed int64
	for runIdx := 1; ; runIdx++ {
		desc, ok, err := f.NextRun()
		if err != nil || !ok {
			return
		}
		for recs := int64(0); ; {
			buf := h.pool.Get(h.chunk, h.e.cfg.RecordSize)
			got, err := f.Fill(buf)
			if err != nil {
				return
			}
			if got == 0 {
				h.pool.Put(buf)
				break
			}
			recs += int64(got)
			// Progress is emitted per drained chunk, not per completed
			// run: a run's length is data-dependent and unbounded (a
			// sorted stream is ONE run), so waiting for a run boundary
			// could leave a streaming caller without any progress signal
			// for the whole sort.
			formed += int64(got)
			if h.o.progress != nil {
				h.o.progress(Progress{Batch: runIdx, FormedRecords: formed, TotalRecords: h.n})
			}
			if !sent(formMsg{chunk: buf.Sub(0, got)}) {
				return
			}
			if h.retain() && recs >= 2*h.runPl.N {
				f.BreakRun() // bound redo memory; the rest becomes the next run
			}
		}
		if !sent(formMsg{desc: desc}) {
			return
		}
	}
}

// retain reports whether each run's chunks are kept in memory until its
// spill has been verified: the source stream that fed a run is consumed as
// the run forms, so a redo can only replay what was kept. Without it any
// permanent spill or scrub failure is terminal.
func (h *hierJob) retain() bool { return h.scrub && h.redoBudget > 0 }

// spillRuns is the last formation stage. For the duration of formation it
// owns the job's run writer, spill sequence, live set, stats and manifest
// log: it writes each run's chunks onto a fresh spill disk through the
// CRC-framing writer and, at the run's end, drains the write-behind queue,
// reads the spilled bytes back against their frames when the scrub is armed
// — NOW, while the run can still be redone; at merge time its producer is
// gone and persistent spill corruption is fatal — and commits the run
// (fsync, then the manifest line), in run order, while the select stage is
// already forming the next run.
//
// A run that cannot be trusted — the spill disk failed permanently
// mid-write, the scrub found persistent corruption (a torn write) — is
// re-spilled onto a fresh disk from the chunks retention kept (they are the
// select stage's own buffers, recycled only once the run has verified; the
// bounded channel is what stops the select stage running further ahead),
// each redo consuming one unit of the budget and counting in BatchRedos. A
// spill failure with retention armed stops writing and keeps receiving: the
// kept chunks are then the only copy of those records. A spill disk that
// cannot be allocated behaves as one whose first write fails.
func (h *hierJob) spillRuns(ctx context.Context, in <-chan formMsg) error {
	var d pdm.Disk // the current attempt's disk, nil before its first chunk and once it failed
	var werr error // why the current attempt cannot be trusted
	var kept []record.Slice
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	write := func(c record.Slice) {
		if d == nil && werr == nil {
			d, werr = h.newSpill()
		}
		if werr == nil {
			werr = h.w.Append(c)
		}
	}
	// verify ends the current attempt: the finished, scrubbed run, or the
	// attempt's failure with its disk closed.
	verify := func(desc bool) (run *merge.Run, err error) {
		if err = werr; err == nil {
			run, err = h.w.Finish()
		}
		if err == nil {
			run.Descending = desc
			if h.scrub {
				err = run.Scrub(ctx, &h.faults)
			}
		}
		if err != nil && d != nil {
			d.Close()
		}
		d, werr = nil, nil
		return run, err
	}
	runIdx := 1
	for {
		var m formMsg
		var ok bool
		select {
		case m, ok = <-in:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		if !ok {
			return nil
		}
		if m.chunk.Data != nil {
			write(m.chunk)
			if h.retain() {
				kept = append(kept, m.chunk)
				continue
			}
			h.pool.Put(m.chunk)
			if werr == nil {
				continue
			}
			// Nothing was kept to redo from: the run is lost where it failed.
		}
		run, err := verify(m.desc)
		for attempt := 0; err != nil; attempt++ {
			// A full filesystem cannot be redone onto: every retry re-spills
			// into the same exhausted space. Fail fast without burning the redo
			// budget so the job's error names the real cause.
			if ctx.Err() != nil || !h.retain() || errors.Is(err, pdm.ErrNoSpace) {
				return fmt.Errorf("colsort: run %d: %w", runIdx, err)
			}
			if attempt >= h.redoBudget {
				return fmt.Errorf("colsort: redo budget (%d) exhausted: run %d: %w", h.redoBudget, runIdx, err)
			}
			h.faults.BatchRedos.Add(1)
			for _, c := range kept {
				write(c)
			}
			run, err = verify(m.desc)
		}
		for _, c := range kept {
			h.pool.Put(c)
		}
		kept = kept[:0]
		if err := h.commitRun(run); err != nil {
			return err
		}
		runIdx++
	}
}

// span is one group [lo, hi) of a merge level.
type span struct{ lo, hi int }

// mergeGroups is the shape of one merge-tree level over k runs: consecutive
// groups of up to fanIn. A group of one — the lone leftover — passes through
// to the next level unrewritten.
func mergeGroups(k, fanIn int) []span {
	groups := make([]span, 0, (k+fanIn-1)/fanIn)
	for lo := 0; lo < k; lo += fanIn {
		groups = append(groups, span{lo, min(lo+fanIn, k)})
	}
	return groups
}

// mergeProgress builds the merge phase's progress emitter. Merge progress
// is cumulative across EVERY level, against the total record count all
// merges together will emit — and clamped monotonic in the emitter: with
// variable-length runs (and pass-through leftovers) a per-level percent
// could otherwise regress between levels.
func (h *hierJob) mergeProgress() func(merged int64) {
	sizes := make([]int64, len(h.live))
	for i, r := range h.live {
		sizes[i] = r.run.Records
	}
	mergeTotal := h.n // the final merge emits every record
	for len(sizes) > h.fanIn {
		var next []int64
		for _, g := range mergeGroups(len(sizes), h.fanIn) {
			var sum int64
			for _, v := range sizes[g.lo:g.hi] {
				sum += v
			}
			if g.hi-g.lo > 1 {
				mergeTotal += sum
			}
			next = append(next, sum)
		}
		sizes = next
	}
	runs := len(h.live)
	var lastEmitted int64
	return func(merged int64) {
		cum := min(max(h.mergedBase+merged, lastEmitted), mergeTotal)
		lastEmitted = cum
		h.o.progress(Progress{Batches: runs, MergedRecords: cum, TotalRecords: mergeTotal})
	}
}

// mergeLevel runs one intermediate level of the merge tree, rewriting
// h.live in place: each group's output lands at or before the slots its
// inputs vacate, so at every instant — an error return included — each
// open run sits in h.live exactly once.
func (h *hierJob) mergeLevel(ctx context.Context, opt merge.Options) error {
	w := 0
	for _, g := range mergeGroups(len(h.live), h.fanIn) {
		out := h.live[g.lo]
		if g.hi-g.lo > 1 {
			var err error
			if out, err = h.mergeGroup(ctx, h.live[g.lo:g.hi], opt); err != nil {
				return err
			}
		}
		for i := g.lo; i < g.hi; i++ {
			h.live[i] = hierRun{}
		}
		h.live[w] = out
		w++
	}
	h.live = h.live[:w]
	return nil
}

// mergeGroup merges one group of live runs into a new spilled run and
// retires the inputs. On error the inputs are untouched.
func (h *hierJob) mergeGroup(ctx context.Context, in []hierRun, opt merge.Options) (hierRun, error) {
	runs := make([]*merge.Run, len(in))
	ids := make([]int, len(in))
	for i, r := range in {
		runs[i], ids[i] = r.run, r.id
	}
	d, err := h.newSpill()
	if err != nil {
		return hierRun{}, err
	}
	out, st, err := merge.MergeToRun(ctx, runs, h.w, opt)
	if err != nil {
		d.Close()
		return hierRun{}, err
	}
	h.stats.BytesRead += st.BytesRead
	h.stats.BytesWritten += st.BytesWritten
	h.mergedBase += out.Records
	merged := hierRun{run: out}
	if h.ckpt != nil {
		// Durability points, in order: the merged output reaches stable
		// storage; the WAL records it (with the input ids it consumed);
		// only then are the consumed input files removed. A crash between
		// any two steps leaves either the inputs live (the merge is
		// redone) or the output live with orphan inputs (swept at resume)
		// — never a gap in the data.
		if err := pdm.SyncDisk(out.Disk); err != nil {
			out.Close()
			return hierRun{}, err
		}
		if merged.id, err = h.ckpt.logMerged(out, ids); err != nil {
			out.Close()
			return hierRun{}, err
		}
	}
	for _, r := range runs {
		h.closeConsumedRun(r)
	}
	return merged, nil
}

// mergePhase reduces the run set level by level and streams the final merge
// into the sink, verifying order in-stream on the merge's verify stage and
// the multiset at end of stream. Under checkpointing each intermediate merge
// output becomes durable (fsync + "merged" WAL entry) before its consumed
// inputs are removed, so a crash at any point leaves a run set that
// re-merges to byte-identical output; on success the checkpoint state is
// retired.
func (h *hierJob) mergePhase(ctx context.Context, dst Sink) (*Result, error) {
	opt := merge.Options{ChunkRecs: h.chunk, Faults: &h.faults, Pool: h.pool}
	if h.o.progress != nil {
		opt.Progress = h.mergeProgress()
	}

	// Merge tree: reduce the run set level by level until one merge fans
	// into the sink. The merges verify every CRC frame they load, healing
	// transient read corruption with a reread and counting both into the
	// job's fault stats, and check every level's order; only the final
	// merge fingerprints its multiset, the one the ingest checksum meets.
	for len(h.live) > h.fanIn {
		h.stats.Levels++
		if err := h.mergeLevel(ctx, opt); err != nil {
			return nil, err
		}
	}

	// Final merge: stream straight into the sink through the egress. Three
	// stages overlap with the runs' prefetch: the merge loop pops and
	// copies; the verify stage checks each chunk's order in normalized key
	// space and folds it into the multiset; the emit stage decodes the
	// chunks that passed and writes them to the sink. A chunk out of order
	// never reaches the sink, and the multiset meets the ingest checksum
	// before the writer is closed — a late failure aborts it instead.
	h.stats.Levels++
	runs := make([]*merge.Run, len(h.live))
	for i, r := range h.live {
		runs[i] = r.run
	}
	err := egress(dst, h.e.cfg.RecordSize, h.codec, h.want, func(emit func(record.Slice) error) (record.Checksum, error) {
		got, st, err := merge.Merge(ctx, runs, emit, opt)
		h.stats.BytesRead += st.BytesRead
		h.stats.BytesWritten += st.BytesWritten
		return got, err
	})
	if err != nil {
		return nil, err
	}
	if h.ckpt != nil {
		// The sink holds the verified output: record completion and retire
		// the checkpoint state (manifest and remaining run files).
		h.closeRuns()
		h.ckpt.complete()
		h.ckpt = nil
	}
	// The engine fabric does not run on this path, so the real work is
	// accounted as synthetic passes: the merge tree, and — unless formation
	// happened before a crash — the former's selection before it. Engine.Stats'
	// cumulative counters (and the server's /metrics derived from them) stay
	// meaningful.
	z := int64(h.runPl.Z)
	mergeRecs := h.mergedBase + h.n // every record each merge level emitted
	mergePass := []sim.Counters{{
		CompareUnits:   mergeRecs * int64(bits.Len64(uint64(h.fanIn))),
		DiskReadBytes:  h.stats.BytesRead,
		DiskReadOps:    int64(h.stats.Runs),
		DiskWriteBytes: h.stats.BytesWritten - h.formSpill,
		DiskWriteOps:   int64(h.stats.Levels),
		MovedBytes:     mergeRecs * z,
	}}
	passCnts := [][]sim.Counters{mergePass}
	if !h.resumed {
		formPass := []sim.Counters{{
			CompareUnits:   h.n * int64(bits.Len64(uint64(h.runPl.N))),
			DiskWriteBytes: h.formSpill,
			DiskWriteOps:   int64(h.stats.Runs),
			MovedBytes:     2 * h.n * z, // arrival + run emit; the chunk sort's gather is not charged
		}}
		passCnts = [][]sim.Counters{formPass, mergePass}
	}
	return &Result{
		Result: &core.Result{Plan: h.runPl, PassCounters: passCnts},
		realN:  h.n,
		Merge:  h.stats,
	}, nil
}

// closeConsumedRun closes a merge input run and, under checkpointing (whose
// spill files survive Close), removes its durable file — legal only after
// the WAL entry of the merge that consumed it is durable.
func (h *hierJob) closeConsumedRun(r *merge.Run) {
	var path string
	if h.ckpt != nil {
		path = pdm.DiskPath(r.Disk)
	}
	r.Close()
	if path != "" {
		_ = os.Remove(path)
	}
}
