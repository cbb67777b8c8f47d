package colsort

import (
	"time"

	"colsort/internal/core"
	"colsort/internal/record"
)

// KeySpec describes where the sort key lives inside a record and in which
// direction to sort it: Width bytes at byte Offset, compared big-endian
// (equivalently: lexicographically by bytes), Ascending or Descending. The
// zero value is the library's native key — 8 bytes at offset 0, ascending —
// so existing callers need not name one. Any offset/width that fits in the
// record is legal, including widths over 8 bytes; records tied on the field
// are ordered deterministically by their remaining bytes.
//
// A KeySpec is compiled (record.KeySpec.Compile) into an allocation-free
// byte permutation applied on ingest and inverted on egress, so the sorting
// kernels run at native-key speed whatever the schema.
type KeySpec = record.KeySpec

// Order is the direction of a KeySpec.
type Order = record.Order

// Key field sort directions.
const (
	Ascending  = record.Ascending
	Descending = record.Descending
)

// Progress reports pass/round completion of a running sort; see
// WithProgress. Round == 0 marks a pass starting, Round == Rounds the pass
// complete.
type Progress = core.Progress

// PaddingPolicy says what Sort does when the record count is not directly
// plannable (the algorithms sort power-of-two record counts subject to
// divisibility conditions).
type PaddingPolicy int

const (
	// PadAuto (the default) accepts any record count n ≥ 1: when n is not
	// directly plannable the input is padded with maximal records up to the
	// smallest power of two the planner accepts, and only the n real
	// records are verified, reported and emitted. The relative overhead is
	// below 2× and shrinks to the next-power-of-two gap.
	PadAuto PaddingPolicy = iota
	// PadNever requires n to satisfy the algorithm's restrictions exactly,
	// failing with the planner's explanation otherwise.
	PadNever
)

// RetryPolicy tunes the storage fault-tolerance layers of one Sort call;
// see WithRetry. The zero value of each field selects its default; negative
// attempts and delays are refused.
type RetryPolicy struct {
	// MaxAttempts is the number of times each disk operation is issued
	// before a transient fault is given up on (default 4). 1 disables
	// retries: the first failure escapes immediately.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-issue (default 200µs);
	// it doubles per attempt up to 10ms, with ±50% jitter. Cancelling the
	// sort's context interrupts any backoff sleep.
	BaseDelay time.Duration
	// RedoBudget is how many times a hierarchical sort may re-spill a
	// formed run onto a fresh disk after its spilled bytes fail
	// verification or its spill disk fails permanently (default 2).
	// Negative disables run redo entirely.
	RedoBudget int
	// Scrub forces the post-spill CRC readback of every run (a job under a
	// test's fault injector always scrubs). It catches persistent
	// write-path corruption — a torn write, bit rot — while the run's
	// retained chunks can still be re-spilled, at the cost of one extra
	// sequential read of every spilled byte.
	Scrub bool
}

// sortOptions collects the functional options of one Sort call, as given:
// what they may hold is checked once, by resolve (plan.go).
type sortOptions struct {
	alg        Algorithm
	group      int // the hybrid's group size; meaningful when alg is Hybrid
	keySpec    KeySpec
	padding    PaddingPolicy
	progress   func(Progress)
	maxMemory  int64 // bytes one run may hold; 0 = only the algorithm's bound
	fanIn      int   // merge fan-in; 0 = defaultMergeFanIn
	retry      *RetryPolicy
	noWait     bool          // fail with ErrBusy instead of queueing for admission
	checkpoint string        // manifest directory of a durable job; "" = no checkpointing
	deadline   time.Duration // per-job wall-clock budget; 0 = none
}

// newSortOptions applies opts over the defaults.
func newSortOptions(opts []Option) sortOptions {
	o := sortOptions{alg: Threaded, padding: PadAuto}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Option customizes one Sort call; see the With* constructors.
//
// Config fields describe the machine at construction time; an Option
// describes one job on it and holds for THAT JOB ONLY — every concurrent job
// keeps its own options. Options never mutate the engine.
type Option func(*sortOptions)

// WithAlgorithm selects the out-of-core sorting program (default Threaded).
// The last algorithm-selecting option wins: it clears any hybrid group a
// preceding WithHybridGroup set.
func WithAlgorithm(alg Algorithm) Option {
	return func(o *sortOptions) { o.alg, o.group = alg, 0 }
}

// WithHybridGroup selects hybrid group columnsort with group size g
// (a power of two, 2 ≤ g ≤ P/2), the Section-6 interpolation between
// Threaded (g = 1) and MColumn (g = P) — and a g like any other: the input
// pads to the planner's next accepted power of two, and above the bound the
// g-plan sizes the replacement-selection run.
func WithHybridGroup(g int) Option {
	return func(o *sortOptions) { o.alg, o.group = Hybrid, g }
}

// WithKeySpec sorts on a caller-defined key field instead of the native
// 8-bytes-at-offset-0 key, so real record formats (log entries, trace
// headers) sort on their own fields without reformatting.
func WithKeySpec(ks KeySpec) Option {
	return func(o *sortOptions) { o.keySpec = ks }
}

// WithPadding sets the padding policy (default PadAuto).
func WithPadding(p PaddingPolicy) Option {
	return func(o *sortOptions) { o.padding = p }
}

// WithMaxMemory caps, in bytes, the records a job holds in memory at a
// time. A sort whose one columnsort run exceeds the cap — or the selected
// algorithm's own problem-size bound — transparently takes the
// hierarchical path: the input stream is cut into maximal sorted runs by
// replacement selection over a resident set of ⌊cap / RecordSize⌋ records
// (runs average ~2× that on random input and collapse to one on
// nearly-sorted input, ascending or descending), and the runs are merged
// by loser-tree k-way merges into the Sink (see WithMergeFanIn). Above the
// bound the cap covers that resident set and, after formation, the
// merges' chunks; it does not cover the formation pipeline's chunk buffers
// or the engine's warm pools. 0 (the default) leaves only the algorithm's
// bound in force. Engine.PlanSort states what the hierarchical path
// requires.
func WithMaxMemory(bytes int64) Option {
	return func(o *sortOptions) { o.maxMemory = bytes }
}

// WithMergeFanIn sets the maximum number of sorted runs the hierarchical
// merge combines at once (0: the default, 16; otherwise at least 2). When
// run formation produces more runs than the fan-in, intermediate merges —
// the smallest runs first, in Huffman's optimal merge pattern — reduce the
// set until one final merge streams into the Sink. Larger fan-ins mean
// fewer passes over the spilled data but more read streams (and prefetch
// buffers) competing at once.
func WithMergeFanIn(k int) Option {
	return func(o *sortOptions) { o.fanIn = k }
}

// WithRetry overrides the sort's storage fault-tolerance policy. Every
// Sort already runs with the default policy — transient disk faults are
// retried under bounded exponential backoff with jitter, every escaping
// disk error carries operation/disk/offset context, spilled runs are
// CRC32C-framed, and a hierarchical run whose spill fails verification is
// re-spilled within the redo budget — so WithRetry exists to
// tune the budgets (or, with MaxAttempts 1 and a negative RedoBudget, to
// fail fast). Retries and redos are visible in Result.Faults and the
// fault-tolerance fields of Result.TotalCounters.
func WithRetry(p RetryPolicy) Option {
	return func(o *sortOptions) { o.retry = &p }
}

// WithNoWait makes the Sort fail fast with ErrBusy when the engine cannot
// admit the job immediately (its memory budget is exhausted or earlier
// jobs are queued), instead of queueing FIFO for a lease. The default is
// to wait; cancelling the job's context abandons the wait either way.
func WithNoWait() Option {
	return func(o *sortOptions) { o.noWait = true }
}

// WithCheckpoint makes a hierarchical sort crash-safe: every verified
// spilled run is recorded — path, record count, direction, CRC32C sidecar —
// in a fsync'd JSON-lines manifest under dir, and the run files themselves
// are kept in dir (instead of the engine's scratch directory) and survive
// the process. A Sort under WithCheckpoint(dir) continues whatever job dir
// holds: after a crash, the same call — same Source, same options — picks
// the job up from its manifest without re-sorting any verified run, while a
// call whose job parameters differ from the manifest's is refused without
// touching dir. The directory belongs to ONE job: it is created if missing,
// must not be shared between concurrent jobs, and is removed when the sort
// completes. Sorts that fit a single run ignore the option (there is nothing
// spilled to checkpoint). See DESIGN.md §13 for the durability contract.
func WithCheckpoint(dir string) Option {
	return func(o *sortOptions) { o.checkpoint = dir }
}

// WithDeadline bounds the job's wall-clock time, measured from the Sort
// call (admission queueing included). A job past its deadline is torn down
// exactly like a cancelled one — goroutines unwind, write-behind drains,
// scratch is removed — and Sort returns an error satisfying
// errors.Is(err, context.DeadlineExceeded). 0 (the default) imposes none, a
// negative one is refused; an earlier deadline on the caller's context still
// applies either way.
func WithDeadline(d time.Duration) Option {
	return func(o *sortOptions) { o.deadline = d }
}

// WithProgress registers a callback receiving pass/round completion events
// from rank 0 of the simulated cluster. The callback runs on the sort's
// internal goroutines — sequentially, never concurrently — and must be fast
// and non-blocking; a callback that cancels the sort's context is the
// supported way to abort from inside a progress handler.
func WithProgress(fn func(Progress)) Option {
	return func(o *sortOptions) { o.progress = fn }
}
