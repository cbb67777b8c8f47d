// Package colsort is an out-of-core, distributed-memory sorting library
// reproducing "Relaxing the Problem-Size Bound for Out-of-Core Columnsort"
// (Chaudhry, Hamon, Cormen; Dartmouth TR2003-445 / SPAA 2003).
//
// It sorts N fixed-size records arranged as an r×s matrix striped over the
// disks of a simulated P-processor cluster, using Leighton's columnsort and
// the paper's two problem-size-bound relaxations:
//
//   - Threaded columnsort (3 passes): N ≤ (M/P)^{3/2}/√2 — restriction (1)
//   - Subblock columnsort (4 passes): N ≤ (M/P)^{5/3}/4^{2/3} — restriction (2)
//   - M-columnsort (3 passes): N ≤ M^{3/2}/√2 — restriction (3)
//   - Combined (4 passes, the paper's future work): N ≤ M^{5/3}/4^{2/3}
//
// A minimal use looks like:
//
//	cfg := colsort.Config{Procs: 4, Disks: 8, MemPerProc: 1 << 16, RecordSize: 64}
//	sorter, err := colsort.New(cfg)
//	...
//	res, err := sorter.Sort(ctx, colsort.FromFile("in.dat"), colsort.ToFile("out.dat"),
//	        colsort.WithAlgorithm(colsort.Subblock))
//	...
//	res.Close()
//
// Sort is the single entry point of the v1 API: a context-aware streaming
// call from a Source (generator, file, byte buffer, io.Reader) to a Sink
// (file, io.Writer, discard), with functional options for
// the algorithm, hybrid group size, padding policy, progress reporting and
// a pluggable key schema (KeySpec). The v0 SortGenerated / SortStore /
// SortFile family, deprecated since the v1 surface landed, has been
// removed; see the README's migration table.
//
// To serve many sorts from one process, construct an Engine (NewEngine): a
// long-lived service owning the machine, the warm buffer pools and the
// scratch directory, admitting concurrent Sort jobs against a TotalMemory
// budget. New builds the same engine without a budget, for callers that
// sort one input at a time (Sorter is an alias of Engine).
//
// The cluster (goroutine processors, message passing), the parallel disk
// model (memory- or file-backed disks with exact operation accounting) and
// the calibrated Beowulf-2003 cost model are all part of the library; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
// evaluation.
package colsort

import (
	"errors"

	"colsort/internal/core"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/verify"
)

// Algorithm selects the out-of-core sorting program.
type Algorithm = core.Algorithm

// ErrTooLarge marks planning failures where N exceeds the algorithm's
// problem-size restriction — the condition under which Sort takes the
// hierarchical runs-plus-merge path instead (PlanSort states the rule).
// Detect with errors.Is.
var ErrTooLarge = core.ErrTooLarge

// ErrHeightRestriction marks plan failures caused specifically by a
// columnsort height restriction (r ≥ 2s² and its relaxed/in-core
// variants) — the geometric condition the source paper relaxes. Where
// growing N cannot help it rides along with ErrTooLarge. Detect with
// errors.Is.
var ErrHeightRestriction = core.ErrHeightRestriction

// ErrSinkRequired marks an above-bound Sort called without a Sink: the
// hierarchical runs-plus-merge path streams its output and cannot sort in
// place. It rides along with ErrTooLarge (the condition that forced the
// hierarchical path). Detect with errors.Is.
var ErrSinkRequired = errors.New("colsort: a non-nil Sink is required")

// ErrMemoryTooSmall marks a WithMaxMemory cap too small for the
// hierarchical path's merges: it cannot hold f + 4 merge chunks of 64
// records, f being the runs one merge takes (the fan-in, or the worst-case
// run count when that is fewer). Detect with errors.Is.
var ErrMemoryTooSmall = errors.New("colsort: the WithMaxMemory cap is too small")

// ErrNoSpace marks a spill write that failed because the underlying device
// is full (ENOSPC/EDQUOT). It is classified permanent in the fault
// taxonomy: the job fails fast without burning retry or batch-redo budget,
// since a full disk never heals by retrying the same write. Detect with
// errors.Is.
var ErrNoSpace = pdm.ErrNoSpace

// The available algorithms. See the package comment for their bounds.
const (
	Threaded4   = core.Threaded4
	Threaded    = core.Threaded
	Subblock    = core.Subblock
	MColumn     = core.MColumn
	Combined    = core.Combined
	BaselineIO3 = core.BaselineIO3
	BaselineIO4 = core.BaselineIO4
	// Hybrid is group columnsort with 2 ≤ g ≤ P/2 (Section-6 future
	// work); select it with WithHybridGroup, which takes g.
	Hybrid = core.Hybrid
)

// Config describes the simulated cluster and the memory budget. It is
// construction-time only: a Config is consumed by New / NewEngine to build
// the machine, and nothing mutates it afterwards. Every field defines the
// machine itself; what one job asks of it (the algorithm, a memory cap,
// retries, fault injection) is that Sort call's Options.
type Config struct {
	// Procs is P, the number of processors (a power of 2).
	Procs int
	// Disks is D ≥ Procs with Procs | Disks; processor p owns disks
	// {p, p+P, ...}. Zero means D = P.
	Disks int
	// MemPerProc is the per-processor column buffer in records — the
	// paper's buffer-size knob. Threaded and subblock columnsort use
	// column height r = MemPerProc; M-columnsort uses r = MemPerProc·P.
	MemPerProc int
	// RecordSize in bytes (≥ 8, multiple of 8; the paper uses 64–128).
	RecordSize int
	// Dir, when non-empty, backs the simulated disks with files under
	// this directory (genuinely out-of-core); otherwise disks live in
	// memory.
	Dir string
	// StripeBytes is the striping unit across a processor's disks
	// (default 64 KiB).
	StripeBytes int
	// Async enables the asynchronous disk layer: the passes' known future
	// access sequence drives read-ahead, and writes retire in the
	// background with errors surfaced at each pass's flush and at Close.
	// Operation counts are identical to a synchronous run.
	Async bool
	// DiskSeekMicros and DiskMBps, when positive, impose a per-operation
	// service time on every disk (seek per discontiguous access plus
	// bytes/bandwidth), modeling physical disks on hardware whose page
	// cache would otherwise hide I/O cost. The delay sits below the async
	// layer, so prefetch and write-behind genuinely overlap it. DiskMBps is
	// the rate of ONE disk, in MiB/s: a store sees Disks of them, and so
	// does the hierarchical path — every spilled run is striped over all
	// Disks disks, which all the runs of a job share (DESIGN.md §14).
	DiskSeekMicros int
	DiskMBps       int
}

// Sorter is the engine under the name single-job callers have always used:
// New builds one with no admission budget.
type Sorter = Engine

// New validates the configuration and builds an unbudgeted Engine.
func New(cfg Config) (*Sorter, error) {
	return NewEngine(EngineConfig{Config: cfg})
}

// Result is a completed sort: the sorted output store plus exact operation
// counts and the means to verify and cost it.
type Result struct {
	*core.Result
	want record.Checksum
	// realN is the number of caller records: the padding is excluded.
	realN int64
	// JobID is the engine job number of this sort — the id that names its
	// scratch-file namespace (pdm.JobScratchPrefix) and attributes it in
	// engine stats. Ids are unique per engine, assigned in admission order.
	JobID int64
	// Faults reports what the fault-tolerance layers absorbed or detected
	// during this sort: all zero on a healthy run. Any non-zero field means
	// the storage stack misbehaved and the sort recovered (the output is
	// verified either way); DiskGiveUps > 0 means some transient faults
	// exhausted the retry budget (the sort failed unless a run redo
	// covered them). Under an engine the counters are job-scoped: faults of
	// concurrent jobs never bleed into each other's reports.
	Faults FaultStats
	// Merge, non-nil after a hierarchical (above-bound) sort, reports the
	// run formation and merge statistics. Hierarchical results have a nil
	// Output — the sorted records were streamed to the Sink, verified on
	// the way — and no columnsort run: their Plan names only the algorithm
	// asked for and the machine (Summary().Plan says what ran).
	// PassCounters (and therefore Estimate / EstimateBeowulf) hold two
	// synthetic passes — the former's selection work and the merge tree's
	// — because no engine pass runs above the bound; the byte traffic
	// itself is reported here in BytesRead/BytesWritten.
	Merge *MergeStats
}

// FaultStats reports the fault-tolerance activity of one sort; see
// Result.Faults and DESIGN.md §9 for the failure model.
type FaultStats = pdm.FaultCounts

// TotalCounters sums all passes and processors, folding the sort's
// fault-tolerance activity (Result.Faults) into the counters' fault fields —
// the engine's per-pass counters cannot carry those, because retries and
// redos happen outside any single processor's accounting.
func (r *Result) TotalCounters() sim.Counters {
	c := r.Result.TotalCounters()
	c.DiskRetries += r.Faults.DiskRetries
	c.DiskGiveUps += r.Faults.DiskGiveUps
	c.CorruptChunks += r.Faults.CorruptChunks
	c.ChunkRereads += r.Faults.ChunkRereads
	c.BatchRedos += r.Faults.BatchRedos
	return c
}

// MergeStats describes the hierarchical execution of an above-bound sort:
// how the input was cut into sorted runs and how the runs were merged
// back into one stream. The JSON tags are the wire representation of the
// colsort-server's job summaries; TestWireEncodingGolden pins them.
type MergeStats struct {
	Runs       int   `json:"runs"`        // sorted runs formed
	Levels     int   `json:"levels"`      // height of the merge tree this process merged, the final merge into the Sink included; adopted runs are its leaves
	FanIn      int   `json:"fan_in"`      // maximum runs merged at once
	RunRecords int64 `json:"run_records"` // H: the records replacement selection holds resident, the former's arena (SortPlan.RunRecords); runs average ~2× it on random input

	BytesRead    int64 `json:"bytes_read"`    // bytes read back from spilled runs by the merges
	BytesWritten int64 `json:"bytes_written"` // bytes written to run spills (formation and intermediate levels) plus streamed to the Sink

	// Formation names how the runs were formed: always "replacement-select".
	Formation string `json:"formation,omitempty"`
	// DownRuns counts runs formed (and spilled) in descending order —
	// replacement selection's "down" runs.
	DownRuns int `json:"down_runs,omitempty"`
	// MinRunRecords/MaxRunRecords bound the formed run lengths, making the
	// data-dependence of replacement selection observable.
	MinRunRecords int64 `json:"min_run_records,omitempty"`
	MaxRunRecords int64 `json:"max_run_records,omitempty"`
	// ResumedRuns counts verified runs adopted from a persisted manifest (a
	// Sort continuing the job its WithCheckpoint directory holds) instead
	// of being re-sorted; always 0 on an uninterrupted sort. A merge-phase
	// resume has ResumedRuns == Runs: nothing was re-sorted.
	ResumedRuns int `json:"resumed_runs,omitempty"`
}

// ResultSummary is the JSON-ready digest of a completed sort — the wire
// representation the colsort-server returns from its job API. It carries
// everything a remote caller can use (counts, plan, merge shape, faults,
// exact operation counters) and nothing process-local (no store, no codec).
// TestWireEncodingGolden pins the encoding.
type ResultSummary struct {
	// JobID is the engine job number of the sort (Result.JobID).
	JobID int64 `json:"job_id"`
	// Records is the number of caller records sorted (padding excluded).
	Records int64 `json:"records"`
	// Plan is the human-readable execution plan: the columnsort run, or
	// for a hierarchical sort what ran above the bound — runs + merge, H,
	// the fan-in, the worst-case run count and merge depth, as
	// SortPlan.String prints them; see Merge for what the sort measured.
	Plan string `json:"plan"`
	// Merge is non-nil after a hierarchical (above-bound) sort.
	Merge *MergeStats `json:"merge,omitempty"`
	// Faults reports the fault-tolerance activity of the sort.
	Faults FaultStats `json:"faults"`
	// Counters sums all passes and processors, fault fields folded in
	// (Result.TotalCounters).
	Counters sim.Counters `json:"counters"`
}

// Summary digests the Result into its wire representation; see
// ResultSummary.
func (r *Result) Summary() ResultSummary {
	s := ResultSummary{
		JobID:   r.JobID,
		Records: r.RealRecords(),
		Faults:  r.Faults,
	}
	if r.Result != nil {
		s.Plan = r.Plan.String()
		s.Counters = r.TotalCounters()
	}
	if r.Merge != nil {
		m := *r.Merge
		s.Merge = &m
		s.Plan = SortPlan{MaxRuns: int((r.realN-1)/m.RunRecords + 1), RunRecords: m.RunRecords, FanIn: m.FanIn}.String()
	}
	return s
}

// Verify checks that the output is globally sorted (in the PDM column-major
// order of footnote 6) and that the record multiset was preserved. For
// padded sorts it verifies the real prefix and that only pads follow. It is
// for the Output of a sort with a nil Sink: a Sort with a Sink verified
// every record as it emitted it.
func (r *Result) Verify() error {
	if r.Output == nil {
		// Hierarchical sorts verify in-stream: the runs are formed by the
		// former and CRC-framed on their spills, every merge checks the
		// order it emits record by record, and the final merge's multiset
		// meets the ingest checksum before the sink is closed. A Result
		// exists only when all of those passed.
		return nil
	}
	return verify.OutputPrefix(r.Output, r.realN, r.want)
}

// RealRecords returns the number of caller records in the output (excluding
// padding): the sorted data is the first RealRecords records in column-major
// order.
func (r *Result) RealRecords() int64 { return r.realN }

// EstimateBeowulf prices the run on the paper's testbed via the calibrated
// cost model.
func (r *Result) EstimateBeowulf() sim.RunEstimate {
	return r.Estimate(sim.Beowulf2003())
}

// Close releases the output store (a no-op for hierarchical results, whose
// output lives in the caller's Sink).
func (r *Result) Close() error {
	if r.Output == nil {
		return nil
	}
	return r.Output.Close()
}
