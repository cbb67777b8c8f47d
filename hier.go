package colsort

// Hierarchical execution: the layer that takes Sort past any single
// columnsort run's problem-size bound. When n exceeds what one run can hold
// (the algorithm's restriction, or a WithMaxMemory cap), the source stream
// is cut into sorted runs by batched replacement selection over a resident
// set of H records (SortPlan.RunRecords; internal/runform: sorted chunks
// split at the run's last record, merged as mini-runs), each run spilled
// CRC-framed and verified; and the runs are combined by loser-tree k-way
// merges in Huffman's optimal merge pattern (schedule), with prefetch on
// the run reads and write-behind on the merged output, the last streaming
// straight into the Sink — no extra materialization pass. The columnsort engine is not on this path: the paper's passes run
// below the bound, replacement selection + merge above it. See DESIGN.md §7
// and §12.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"colsort/internal/core"
	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/runform"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// defaultMergeFanIn is the runs-per-merge bound when WithMergeFanIn is not
// given: wide enough that inputs dozens of times the bound merge in one
// level, narrow enough that the read streams' prefetch buffers stay small.
const defaultMergeFanIn = 16

// maxRedos is how many run redos a hierarchical sort under the scrub may
// spend: enough to survive a failed spill disk plus one unlucky
// verification, small enough that a systematically failing storage stack
// still fails the sort promptly.
const maxRedos = 2

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
// product: any fan-in ≥ 2 is legal, and a huge one would overflow it. A cap
// whose chunks would fall below minMergeChunk is refused by resolve
// (ErrMemoryTooSmall).
func (e *Engine) mergeChunkRecs(o sortOptions, fanIn int) int {
	c := uint64(e.cfg.MemPerProc / 2)
	if o.maxMemory > 0 {
		c = min(c, uint64(o.maxMemory/int64(e.cfg.RecordSize))/(uint64(fanIn)+4))
	}
	return int(min(max(c, minMergeChunk), 1<<16))
}

// minMergeChunk is the fewest records a merge chunk holds: the merge's
// floor, (fanIn + 4)·minMergeChunk records, is the smallest cap a
// hierarchical sort accepts.
const minMergeChunk = 64

// hierRun is one live run of a hierarchical sort and the manifest id that
// names it (0 when the job is not checkpointed).
type hierRun struct {
	run *merge.Run
	id  int
}

// hierJob owns ALL the state of one hierarchical sort: what was asked
// (options, codec, n, the run capacity), what that resolves to (fan-in,
// merge chunk, the redo policy), and what the sort accumulates — the spill-disk
// sequence, the ingest checksum, stats, the manifest log and the live run
// set. The phases are its methods; the run set is closed once,
// by sortHierarchical's defer, on every path.
type hierJob struct {
	*job
	o       sortOptions
	codec   record.KeyCodec
	n       int64
	runRecs int // H: the former's capacity, below its 2³¹−1 slots (resolve)

	fanIn, chunk int
	pool         *record.Pool // chunk buffers: formation's pipeline, the merges' run readers

	// scrub is the recovery switch: every spilled run gets a post-spill
	// CRC readback, and its chunks are retained until that verifies, so a
	// run whose spill failed is redone, up to maxRedos times. It is
	// opt-in (WithRetry) for every job: it is the only way a torn spill
	// write is caught while its run can still be redone, and on healthy
	// storage it costs one extra sequential read of every spilled byte to
	// detect nothing. Without it a spill failure is terminal.
	scrub bool

	// ckpt is the manifest WAL under WithCheckpoint; nil otherwise (see
	// manifestLog for what a nil log still answers).
	ckpt *manifestLog

	spillSeq   int             // next spill-disk ordinal: one sequence for formation, redos and merge outputs
	w          *merge.Writer   // the job's one run writer, armed on a disk per spill
	live       []hierRun       // the current run set, in merge order
	want       record.Checksum // ingest multiset, in the codec's normalized key space
	stats      *MergeStats
	formSpill  int64 // bytes the formation phase spilled, before any merge traffic
	mergedBase int64 // records emitted by the completed intermediate merges
	resumed    bool  // formation happened in a previous process; this one only merges
}

// newHierJob resolves the options of a hierarchical sort of n records as
// resolve planned it (sp) into the job value its phases run on. The caller
// has already compiled the codec and validated the options.
func (j *job) newHierJob(o sortOptions, codec record.KeyCodec, n int64, sp SortPlan) *hierJob {
	h := &hierJob{job: j, o: o, codec: codec, n: n, runRecs: int(sp.RunRecords), pool: j.m.Pools[0],
		fanIn: sp.FanIn, scrub: o.scrub}
	h.chunk = j.e.mergeChunkRecs(o, h.fanIn)
	h.w = merge.NewWriter(nil, j.e.cfg.RecordSize, h.chunk)
	h.w.Pool = h.pool
	h.stats = &MergeStats{FanIn: h.fanIn, RunRecords: sp.RunRecords, Formation: formationName}
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

// closeRuns closes every run still in the live set and empties it.
func (h *hierJob) closeRuns() {
	for _, r := range h.live {
		r.run.Close()
	}
	h.live = nil
}

// retireRun closes a run that a durable entry has consumed — the merged
// entry of the merge that read it, or done — as scratch: its file goes back
// to the engine's pool, or off the disk when it has none or an operation on
// it failed. A checkpointed run must be retired no earlier: until then a
// resume may need it.
func retireRun(r *merge.Run) {
	pdm.Retire(r.Disk)
	r.Close()
}

// newSpill allocates the job's next spill disk and arms the job's writer on
// it. Formation runs, redone runs and merge outputs draw from the one
// sequence, so no two spills of a job share an ordinal (which names the file
// and keys an injector's scripted faults); they are written one at a time,
// so they also share one writer.
func (h *hierJob) newSpill() (pdm.Disk, error) {
	d, err := h.m.NewSpillDisk(h.spillSeq)
	h.spillSeq++
	if err == nil {
		h.w.Reset(d)
	}
	return d, err
}

// commitRun makes a formed, verified run durable under a checkpoint, then
// admits it to the live set and accounts it. A run it fails on stays the
// caller's.
func (h *hierJob) commitRun(run *merge.Run) error {
	id := 0
	if h.ckpt != nil {
		// Durability point: the run's bytes (already scrubbed when armed)
		// reach stable storage before the manifest entry that claims them
		// does.
		if err := pdm.SyncDisk(run.Disk); err != nil {
			return err
		}
		var err error
		if id, err = h.ckpt.logRun(run); err != nil {
			return err
		}
	}
	h.live = append(h.live, hierRun{run: run, id: id})
	h.stats.BytesWritten += run.Bytes() // run formation's spill
	if run.Descending {
		h.stats.DownRuns++
	}
	if h.stats.MinRunRecords == 0 || run.Records < h.stats.MinRunRecords {
		h.stats.MinRunRecords = run.Records
	}
	h.stats.MaxRunRecords = max(h.stats.MaxRunRecords, run.Records)
	return nil
}

// Run formation is a pipeline of four stages, each on its own goroutine,
// joined by bounded channels (DESIGN.md §12):
//
//	ingest ──sorted chunks──▶ select ──formMsgs──▶ spill ──runs──▶ commit
//
// The chunk channels' bounds are the memory bound: ingest's staging buffer,
// the sorted chunk it is handing over and the one select is admitting (back
// in the pool once copied into the former's pages), and three emit chunks
// (one filling, one queued, one being written). A run handed to commit is on
// its disk, holding no buffer; the hand-off is unbuffered, so a run's fsync
// overlaps the next run's spill and durability lags select by at most two
// runs.

// A formMsg is what the select stage hands the spill stage: the next chunk
// of the current run, or — with no chunk — that run's end and direction.
type formMsg struct {
	chunk record.Slice
	desc  bool
}

// formReplacementRuns is the run producer: variable-length sorted runs
// formed by the former, consuming the source stream directly. Records are
// encoded into normalized key space as they arrive and handed over as
// sorted chunks (ingest), the former's resident set (runRecs records — the
// memory the job's admission lease charges) emits each run in its chosen
// direction (select, on the calling goroutine: the former, BreakRun and
// every Progress call stay here, in one order whatever the scheduler does),
// descending runs marked for the merge's backwards read, and each run is
// spilled and verified (spillRuns) while the next one is being selected,
// then committed in run order (commitRuns) while the next is spilled. The engine's
// fabric is never involved: order comes from the former, and end-to-end
// verification from the merge's in-stream order check plus the final
// multiset comparison against the ingest checksum.
//
// Ingest, spill and commit run on a pipeline.Group: the first failure of
// any stage — or the caller's cancellation — is the group's cause: it stops
// the other stages, every channel wait that could outlive its neighbour is a
// pipeline.Send or Recv on it, and it is what the call returns, once every
// goroutine has exited. The ingest stage is the only code that touches rd,
// so the caller may then close it.
func (h *hierJob) formReplacementRuns(ctx context.Context, rd RecordReader) error {
	g := pipeline.NewGroup(ctx)
	chunks := make(chan runform.Chunk)
	msgs := make(chan formMsg, 1)
	runs := make(chan *merge.Run)
	g.Go(func() error { return h.ingest(g.Context(), rd, chunks) })
	g.Go(func() error { return h.spillRuns(g.Context(), msgs, runs) })
	g.Go(func() error { return h.commitRuns(g, runs) })
	h.selectRuns(g.Context(), chunks, msgs)
	close(msgs)
	return g.Wait()
}

// ingest is the first formation stage and the only reader of rd: it reads
// the stream in chunks of the former's chunk length into its staging buffer,
// encodes each into normalized key space and folds it into the ingest
// checksum — before the sort, so the checksum fingerprints what was read —
// then has runform.SortChunk tally its key steps and radix-sort it into a
// pooled buffer, which it sends on; it closes the channel behind the last. A
// chunk already in order is sent as the staging buffer itself, and the
// pooled buffer becomes the stage.
func (h *hierJob) ingest(ctx context.Context, rd RecordReader, out chan<- runform.Chunk) error {
	z := h.e.cfg.RecordSize
	stage := h.pool.Get(runform.ChunkLen(h.runRecs), z)
	defer func() { h.pool.Put(stage) }()
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
		dst := h.pool.Get(got, z)
		c, inPlace := runform.SortChunk(sc, dst, buf)
		if inPlace {
			stage = dst // short only at the end of the stream, when nothing more is staged
		}
		if err := pipeline.Send(ctx, out, c); err != nil {
			h.pool.Put(c.Recs)
			return err
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
	f := runform.NewChunked(h.runRecs, h.e.cfg.RecordSize, h.pool, func() (runform.Chunk, error) {
		c, _, err := pipeline.Recv(ctx, in)
		return c, err // no records once the ingest stage has closed the stream behind its last chunk
	})
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
			if pipeline.Send(ctx, out, formMsg{chunk: buf.Sub(0, got)}) != nil {
				return
			}
			if h.scrub && recs >= 2*int64(h.runRecs) {
				f.BreakRun() // bound redo memory; the rest becomes the next run
			}
		}
		if pipeline.Send(ctx, out, formMsg{desc: desc}) != nil {
			return
		}
	}
}

// spillRuns is the third formation stage. For the duration of formation it
// owns the job's run writer and spill sequence: it writes each run's chunks
// onto a fresh spill disk through the CRC-framing writer and, at the run's
// end, drains the write-behind queue, reads the spilled bytes back against
// their frames when the scrub is armed — NOW, while the run can still be
// redone; at merge time its producer is gone and persistent spill
// corruption is fatal — and hands the verified run to the commit stage, in
// run order, while the select stage is already forming the next run. It
// closes out behind the last run, and a run it could not hand over it
// closes itself.
//
// A run that cannot be trusted — the spill disk failed permanently
// mid-write, the scrub found persistent corruption (a torn write) — is
// re-spilled onto a fresh disk from the chunks the scrub kept (they are the
// select stage's own buffers, recycled only once the run has verified; the
// bounded channel is what stops the select stage running further ahead),
// each redo consuming one unit of the budget and counting in BatchRedos. A
// spill failure under the scrub stops writing and keeps receiving: the kept
// chunks are then the only copy of those records; without the scrub nothing
// was kept to redo from, and the failure is terminal. A spill disk that
// cannot be allocated behaves as one whose first write fails.
func (h *hierJob) spillRuns(ctx context.Context, in <-chan formMsg, out chan<- *merge.Run) error {
	var d pdm.Disk // the current attempt's disk, nil before its first chunk and once it failed
	var werr error // why the current attempt cannot be trusted
	var kept []record.Slice
	defer close(out)
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
		m, ok, err := pipeline.Recv(ctx, in)
		if !ok {
			return err
		}
		if m.chunk.Data != nil {
			write(m.chunk)
			if h.scrub { // the stream that fed the run is consumed: a redo replays only what is kept
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
			// A full filesystem cannot be redone onto: every redo re-spills
			// into the same exhausted space. Fail fast without burning the redo
			// budget so the job's error names the real cause.
			if ctx.Err() != nil || !h.scrub || errors.Is(err, pdm.ErrNoSpace) {
				return fmt.Errorf("colsort: run %d: %w", runIdx, err)
			}
			if attempt >= maxRedos {
				return fmt.Errorf("colsort: redo budget (%d) exhausted: run %d: %w", maxRedos, runIdx, err)
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
		if err := pipeline.Send(ctx, out, run); err != nil {
			run.Close()
			return err
		}
		runIdx++
	}
}

// commitRuns is the last formation stage. For the duration of formation it
// owns the live set, the run stats and the manifest log: it commits each
// verified run in run order (commitRun: under a checkpoint the run's fsync,
// then its manifest line; then its admission) while the spill stage writes
// the next. Once the group has ended — by its own failure, which it reports
// at once, or another's — it commits nothing more: it closes every run it is
// still handed, until the spill stage closes in behind its last.
func (h *hierJob) commitRuns(g *pipeline.Group, in <-chan *merge.Run) error {
	var err error
	for run := range in {
		if err == nil && g.Context().Err() == nil {
			if err = h.commitRun(run); err == nil {
				continue
			}
			g.Fail(err) // stop the other stages now; the spill stage then closes in
		}
		run.Close()
	}
	return err
}

// schedule is the merge schedule: Huffman's optimal merge pattern (Knuth,
// TAOCP vol. 3 §5.4.9) over runs of the given record counts, in live-set
// order. While more than f runs are live, the next merge takes the
// ((k−2) mod (f−1)) + 2 smallest of the k runs — f in steady state — ties
// going to the earlier position, and its output joins the live set at the
// end (retire); the final merge takes the rest. It returns the merges in
// order, each the ascending positions of its inputs in the live set as it
// stands then, the records they emit together, and the height of the tree,
// the final merge's level included, over the runs it starts from as leaves.
// It is a function of the live set alone, so a resumed job, whose manifest
// replays the live runs in log order, continues the same schedule. It
// consumes lens.
func schedule(lens []int64, fanIn int) (merges [][]int, records int64, height int) {
	heights := make([]int, len(lens))
	for k := len(lens); k > fanIn; k = len(lens) {
		pos := make([]int, k)
		for i := range pos {
			pos[i] = i
		}
		slices.SortStableFunc(pos, func(a, b int) int { return cmp.Compare(lens[a], lens[b]) })
		pick := pos[:(k-2)%(fanIn-1)+2]
		slices.Sort(pick)
		var sum int64
		up := 0
		for _, i := range pick {
			sum, up = sum+lens[i], max(up, heights[i]+1)
		}
		merges, records = append(merges, pick), records+sum
		lens, heights = retire(lens, pick, sum), retire(heights, pick, up)
	}
	return merges, records, slices.Max(heights) + 1
}

// retire is one step of the schedule on a live set: it removes the entries
// at the ascending positions pick, keeping the others in order, and appends
// the merge's output.
func retire[T any](live []T, pick []int, out T) []T {
	for _, p := range slices.Backward(pick) {
		live = slices.Delete(live, p, p+1)
	}
	return append(live, out)
}

// mergeProgress builds the merge phase's progress emitter. Merge progress
// is cumulative across EVERY merge, against mergeTotal, the record count
// all merges together will emit — and clamped monotonic in the emitter.
func (h *hierJob) mergeProgress(mergeTotal int64) func(merged int64) {
	runs := len(h.live)
	var lastEmitted int64
	return func(merged int64) {
		cum := min(max(h.mergedBase+merged, lastEmitted), mergeTotal)
		lastEmitted = cum
		h.o.progress(Progress{Batches: runs, MergedRecords: cum, TotalRecords: mergeTotal})
	}
}

// mergeInto runs one intermediate merge of the schedule: the live runs at
// positions pick, merged into a new spilled run, leave the live set, and the
// new run joins it at the end. On error the live set is untouched.
func (h *hierJob) mergeInto(ctx context.Context, pick []int, opt merge.Options) error {
	runs := make([]*merge.Run, len(pick))
	ids := make([]int, len(pick))
	for i, p := range pick {
		runs[i], ids[i] = h.live[p].run, h.live[p].id
	}
	d, err := h.newSpill()
	if err != nil {
		return err
	}
	out, st, err := merge.MergeToRun(ctx, runs, h.w, opt)
	if err != nil {
		d.Close()
		return err
	}
	h.stats.BytesRead += st.BytesRead
	h.stats.BytesWritten += st.BytesWritten
	h.mergedBase += out.Records
	merged := hierRun{run: out}
	if h.ckpt != nil {
		// Durability points, in order: the merged output reaches stable
		// storage; the WAL records it (with the input ids it consumed);
		// only then are the consumed inputs retired. A crash between any
		// two steps leaves either the inputs live (the merge is redone) or
		// the output live with orphan inputs (swept at resume) — never a
		// gap in the data.
		if err := pdm.SyncDisk(out.Disk); err != nil {
			out.Close()
			return err
		}
		if merged.id, err = h.ckpt.logMerged(out, ids); err != nil {
			out.Close()
			return err
		}
	}
	for _, r := range runs {
		retireRun(r)
	}
	h.live = retire(h.live, pick, merged)
	return nil
}

// mergePhase reduces the run set merge by merge, as schedule orders, and
// streams the final merge into the sink, verifying order in-stream on the
// merge's verify stage and the multiset at end of stream. Under checkpointing each intermediate merge
// output becomes durable (fsync + "merged" WAL entry) before its consumed
// inputs are retired, so a crash at any point leaves a run set that
// re-merges to byte-identical output; on success the checkpoint state is
// retired.
func (h *hierJob) mergePhase(ctx context.Context, dst Sink) (*Result, error) {
	opt := merge.Options{ChunkRecs: h.chunk, Faults: &h.faults, Pool: h.pool}
	lens := make([]int64, len(h.live))
	for i, r := range h.live {
		lens[i] = r.run.Records
	}
	merges, records, levels := schedule(lens, h.fanIn)
	h.stats.Levels = levels
	if h.o.progress != nil {
		opt.Progress = h.mergeProgress(h.n + records) // the final merge emits every record
	}

	// Merge tree: reduce the run set one scheduled merge at a time until
	// one merge fans into the sink. The merges verify every CRC frame they
	// load, healing transient read corruption with a reread and counting
	// both into the job's fault stats, and check every merge's order; only
	// the final merge fingerprints its multiset, the one the ingest checksum
	// meets.
	for _, pick := range merges {
		if err := h.mergeInto(ctx, pick, opt); err != nil {
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
		// The sink holds the verified output: record completion; once that
		// is durable the final merge's inputs retire, and the rest of the
		// checkpoint state (manifest, leftover run files) goes.
		if h.ckpt.logDone() == nil {
			for _, r := range h.live {
				retireRun(r.run)
			}
			h.live = nil
		}
		h.closeRuns()
		h.ckpt.remove()
		h.ckpt = nil
	}
	// The engine fabric does not run on this path, so the real work is
	// accounted as synthetic passes: the merge tree, and — unless formation
	// happened before a crash — the former's selection before it. Engine.Stats'
	// cumulative counters (and the server's /metrics derived from them) stay
	// meaningful.
	z := int64(h.e.cfg.RecordSize)
	mergeRecs := h.mergedBase + h.n // every record each merge emitted
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
			CompareUnits:   h.n * int64(bits.Len64(uint64(h.runRecs))),
			DiskWriteBytes: h.formSpill,
			DiskWriteOps:   int64(h.stats.Runs),
			MovedBytes:     2 * h.n * z, // arrival + run emit; the chunk sort's gather is not charged
		}}
		passCnts = [][]sim.Counters{formPass, mergePass}
	}
	// No columnsort run executed: the plan names only the algorithm asked
	// for and the machine, whose D the cost model's estimate reads.
	c := h.e.cfg
	return &Result{
		Result: &core.Result{Plan: core.Plan{Alg: h.o.alg, Z: c.RecordSize, P: c.Procs, D: c.Disks}, PassCounters: passCnts},
		realN:  h.n,
		Merge:  h.stats,
	}, nil
}
