// Package cluster simulates the distributed-memory message-passing cluster
// the paper runs on: P processors executing the same program (SPMD, as with
// MPI), exchanging record buffers through tagged point-to-point messages and
// a few collectives.
//
// Each processor is a goroutine; within a processor, the pipeline stages of
// the out-of-core algorithms are further goroutines that may communicate
// concurrently, so receives are matched MPI-style by (source, tag) rather
// than by arrival order. Tags therefore encode (pass, stage, round), which
// both demultiplexes concurrent streams and asserts the obliviousness of
// the communication pattern: a tag mismatch means the pattern diverged from
// the plan and is reported as corruption rather than mis-delivered.
//
// # Ownership-transfer fabric
//
// Because every "processor" lives in one address space, a message need not
// copy its payload: Send RELINQUISHES the sender's buffer and the receiver
// adopts the very same bytes (recycling them into its own pool when the
// records have moved on). That zero-copy discipline is the fabric every job
// runs on. The Copying fabric deep-copies every payload through a
// fabric-owned pool at send time — the memcpy an MPI transport would perform
// — and exists as the reference the ownership transfer is tested against:
// the caller-visible contract is identical in both modes (the sender must
// not touch a buffer after sending it), and so is every sim.Counters charge,
// so the two are byte- and counter-equivalent (core.TestFabricEquivalence,
// TestFabricAliasing). See DESIGN.md §8.
//
// All traffic is counted into caller-supplied sim.Counters: messages between
// distinct processors charge network bytes, self-destined messages charge
// only local bytes (the paper's communicate stage likewise excludes the
// message a processor sends itself from network traffic).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"colsort/internal/record"
	"colsort/internal/sim"
)

// ErrAborted is returned by communication operations after the cluster has
// been shut down by another processor's failure.
var ErrAborted = errors.New("cluster: aborted by peer failure")

// Fabric selects how message payloads cross the simulated wire.
type Fabric int

const (
	// ZeroCopy transfers buffer ownership: the receiver adopts the
	// sender's buffer. What every job runs on.
	ZeroCopy Fabric = iota
	// Copying deep-copies every payload through a fabric-owned pool at
	// send time, as an MPI transport would; the sender's buffer is
	// recycled into that pool. Counters and outputs are identical to
	// ZeroCopy, which is what the tests that select it check.
	Copying
)

func (f Fabric) String() string {
	switch f {
	case ZeroCopy:
		return "zero-copy"
	case Copying:
		return "copying"
	}
	return fmt.Sprintf("Fabric(%d)", int(f))
}

// maxFreeQueues bounds the drained tag-queue slices a mailbox retains for
// reuse; the pipeline depth bounds how many tags are ever live at once.
const maxFreeQueues = 8

// mailbox queues messages from one source processor to one destination,
// matched by tag. A condition variable rather than a channel because
// receivers select by tag, not by arrival order. The pending map is
// created on first use: a cluster has P² mailboxes and sparse patterns
// (bitonic exchanges, targeted subblock sends) leave many untouched.
// Drained tag queues are recycled onto freeq instead of reallocating a
// fresh []record.Slice per tag per round.
type mailbox struct {
	mu      sync.Mutex
	cond    sync.Cond
	pending map[int][]record.Slice // tag → FIFO queue
	freeq   [][]record.Slice       // drained queues, ready for reuse
	closed  bool
}

func (mb *mailbox) put(tag int, recs record.Slice) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrAborted
	}
	if mb.pending == nil {
		mb.pending = make(map[int][]record.Slice)
	}
	q, ok := mb.pending[tag]
	if !ok {
		if ln := len(mb.freeq); ln > 0 {
			q = mb.freeq[ln-1]
			mb.freeq[ln-1] = nil
			mb.freeq = mb.freeq[:ln-1]
		}
	}
	mb.pending[tag] = append(q, recs)
	mb.cond.Broadcast()
	return nil
}

func (mb *mailbox) get(tag int) (record.Slice, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if q := mb.pending[tag]; len(q) > 0 {
			recs := q[0]
			// Shift-pop keeps the queue anchored at its base so the
			// drained slice retains its full capacity for reuse.
			copy(q, q[1:])
			q[len(q)-1] = record.Slice{}
			q = q[:len(q)-1]
			if len(q) == 0 {
				delete(mb.pending, tag)
				if len(mb.freeq) < maxFreeQueues {
					mb.freeq = append(mb.freeq, q)
				}
			} else {
				mb.pending[tag] = q
			}
			return recs, nil
		}
		if mb.closed {
			return record.Slice{}, ErrAborted
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// xkey identifies one in-flight all-to-all round on the exchange board:
// the collective's tag plus the participant window [base, base+n) — group
// collectives with disjoint windows may share a tag without colliding.
type xkey struct{ tag, base, n int }

// exchange is one all-to-all round in flight: an n×n matrix of deposit
// slots (slots[dst·n+src]). Every participant deposits its n outgoing
// buffers under ONE lock acquisition, waits once for the round to fill,
// and takes its row — a single synchronization per round instead of the
// 2n tag-matched mailbox wakeups of the point-to-point formulation.
type exchange struct {
	slots     []record.Slice
	deposited int
	taken     int
}

// maxFreeExchanges bounds the retired exchange boards kept for reuse.
const maxFreeExchanges = 8

// Cluster is the shared communication fabric of P processors.
type Cluster struct {
	p      int
	fabric Fabric
	boxes  []mailbox // P² mailboxes, box(dst, src) = boxes[dst·P+src]

	// wirePool recycles the payload copies of the Copying fabric.
	wirePool *record.Pool

	// Exchange board for the all-to-all collectives.
	xmu      sync.Mutex
	xcv      *sync.Cond
	xchgs    map[xkey]*exchange
	xfree    []*exchange
	xaborted bool

	barrierMu  sync.Mutex
	barrierCnt int
	barrierGen int
	barrierCv  *sync.Cond

	abortOnce  sync.Once
	aborted    bool
	abortCause error // first cause passed to abort; read after Run's wait
}

// NewFabric builds a cluster fabric with an explicit payload-transfer mode.
// The whole fabric is a handful of allocations — a run constructs one per
// sort, so setup must not scale with P² allocator calls.
func NewFabric(p int, fabric Fabric) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("cluster: need at least one processor, got %d", p))
	}
	c := &Cluster{p: p, fabric: fabric, boxes: make([]mailbox, p*p)}
	for i := range c.boxes {
		mb := &c.boxes[i]
		mb.cond.L = &mb.mu
	}
	c.barrierCv = sync.NewCond(&c.barrierMu)
	c.xcv = sync.NewCond(&c.xmu)
	c.xchgs = make(map[xkey]*exchange)
	if fabric == Copying {
		c.wirePool = record.NewPool()
	}
	return c
}

// box returns the mailbox holding messages from src destined to dst.
func (c *Cluster) box(dst, src int) *mailbox { return &c.boxes[dst*c.p+src] }

// P returns the number of processors.
func (c *Cluster) P() int { return c.p }

// wireCopy realizes the Copying fabric's transport memcpy: the payload is
// duplicated through the fabric pool and the sender's buffer recycled into
// it (the sender relinquished the buffer either way). A no-op on the
// zero-copy fabric and for nil payloads.
func (c *Cluster) wireCopy(recs record.Slice) record.Slice {
	if c.fabric != Copying || recs.Data == nil {
		return recs
	}
	cp := c.wirePool.Get(recs.Len(), recs.Size)
	cp.Copy(recs)
	c.wirePool.Put(recs)
	return cp
}

// abort shuts down all mailboxes, releases barrier waiters and unblocks the
// exchange board, so that every blocked processor unblocks with ErrAborted.
// The first cause is retained so Run can report the root of an externally
// triggered abort (context cancellation) rather than the generic ErrAborted.
func (c *Cluster) abort(cause error) {
	c.abortOnce.Do(func() {
		c.barrierMu.Lock()
		c.aborted = true
		c.abortCause = cause
		c.barrierCv.Broadcast()
		c.barrierMu.Unlock()
		for i := range c.boxes {
			c.boxes[i].close()
		}
		c.xmu.Lock()
		c.xaborted = true
		c.xcv.Broadcast()
		c.xmu.Unlock()
	})
}

// exchangeRound deposits out (n buffers, one per participant index) into
// the board round identified by key on behalf of participant me, waits for
// the round to fill, and returns the n buffers destined to me in a header
// array from the shared free list. Ownership semantics match Send/Recv.
func (c *Cluster) exchangeRound(key xkey, me int, out []record.Slice) ([]record.Slice, error) {
	n := key.n
	c.xmu.Lock()
	if c.xaborted {
		c.xmu.Unlock()
		return nil, ErrAborted
	}
	e := c.xchgs[key]
	if e == nil {
		if ln := len(c.xfree); ln > 0 && cap(c.xfree[ln-1].slots) >= n*n {
			e = c.xfree[ln-1]
			c.xfree[ln-1] = nil
			c.xfree = c.xfree[:ln-1]
			e.slots = e.slots[:n*n]
		} else {
			e = &exchange{slots: make([]record.Slice, n*n)}
		}
		c.xchgs[key] = e
	}
	for d := 0; d < n; d++ {
		e.slots[d*n+me] = out[d]
	}
	e.deposited++
	if e.deposited == n {
		c.xcv.Broadcast()
	}
	for e.deposited < n && !c.xaborted {
		c.xcv.Wait()
	}
	if c.xaborted {
		c.xmu.Unlock()
		return nil, ErrAborted
	}
	in := record.GetHeaders(n)
	row := e.slots[me*n : (me+1)*n]
	for q := 0; q < n; q++ {
		in[q] = row[q]
		row[q] = record.Slice{}
	}
	e.taken++
	if e.taken == n {
		delete(c.xchgs, key)
		e.deposited, e.taken = 0, 0
		if len(c.xfree) < maxFreeExchanges {
			c.xfree = append(c.xfree, e)
		}
	}
	c.xmu.Unlock()
	return in, nil
}

// Proc is one processor's handle onto the cluster.
type Proc struct {
	rank     int
	c        *Cluster
	packOffs []int32 // planned all-to-all packing scratch
}

// Rank returns this processor's id in [0, P).
func (pr *Proc) Rank() int { return pr.rank }

// NProcs returns the cluster size P.
func (pr *Proc) NProcs() int { return pr.c.p }

// chargeMsg counts one message from the calling processor: network traffic
// unless self is true, which costs only a local handoff. Identical in both
// fabric modes.
func chargeMsg(cnt *sim.Counters, self bool, bytes int) {
	if cnt == nil {
		return
	}
	if self {
		cnt.LocalBytes += int64(bytes)
		cnt.LocalMsgs++
	} else {
		cnt.NetBytes += int64(bytes)
		cnt.NetMsgs++
	}
}

// Send delivers recs to processor dst under the given tag. The sender
// RELINQUISHES the buffer: on the zero-copy fabric the receiver adopts it
// outright, on the copying fabric the payload crosses as a copy and the
// original recycles into the fabric pool — either way the sender must not
// touch recs afterwards. Network traffic is charged to cnt unless dst is
// the sender itself, which costs only a local handoff.
func (pr *Proc) Send(cnt *sim.Counters, dst, tag int, recs record.Slice) error {
	if dst < 0 || dst >= pr.c.p {
		return fmt.Errorf("cluster: send to rank %d of %d", dst, pr.c.p)
	}
	chargeMsg(cnt, dst == pr.rank, len(recs.Data))
	return pr.c.box(dst, pr.rank).put(tag, pr.c.wireCopy(recs))
}

// Recv blocks until a message from src with the given tag arrives and
// returns its buffer, which the receiver now owns (it may recycle it into
// any pool once the records have moved on). Messages from one source under
// one tag arrive in send order.
func (pr *Proc) Recv(src, tag int) (record.Slice, error) {
	if src < 0 || src >= pr.c.p {
		return record.Slice{}, fmt.Errorf("cluster: recv from rank %d of %d", src, pr.c.p)
	}
	return pr.c.box(pr.rank, src).get(tag)
}

// Barrier blocks until all P processors have entered it. The out-of-core
// algorithms use it only between passes, never inside the pipelines.
func (pr *Proc) Barrier() error {
	c := pr.c
	c.barrierMu.Lock()
	defer c.barrierMu.Unlock()
	if c.aborted {
		return ErrAborted
	}
	gen := c.barrierGen
	c.barrierCnt++
	if c.barrierCnt == c.p {
		c.barrierCnt = 0
		c.barrierGen++
		c.barrierCv.Broadcast()
		return nil
	}
	for c.barrierGen == gen && !c.aborted {
		c.barrierCv.Wait()
	}
	if c.aborted {
		return ErrAborted
	}
	return nil
}

// chargeAllToAll counts what one participant sends in an all-to-all: a
// message is a NON-EMPTY buffer — a sparse pattern (the subblock pass's
// ⌈P/√s⌉ targets, a redistribution with s < P) costs what a hand-written
// targeted send would — and the buffer addressed to oneself is local.
func chargeAllToAll(cnt *sim.Counters, me int, out []record.Slice) {
	for d := range out {
		if len(out[d].Data) > 0 {
			chargeMsg(cnt, d == me, len(out[d].Data))
		}
	}
}

// AllToAll performs the personalized all-to-all exchange at the heart of
// the communicate stages: out[q] is sent to processor q, and the returned
// slice holds in[q] received from every q (including this processor's own
// contribution, which never touches the network). Only non-empty buffers
// count as messages. All processors must call it with the same tag. The round goes through the exchange board — one
// synchronization per processor per round — and ownership semantics match
// Send/Recv. The returned header array comes from the shared header free
// list; callers done with it may record.PutHeaders it.
func (pr *Proc) AllToAll(cnt *sim.Counters, tag int, out []record.Slice) ([]record.Slice, error) {
	if len(out) != pr.c.p {
		return nil, fmt.Errorf("cluster: all-to-all with %d buffers on %d processors", len(out), pr.c.p)
	}
	chargeAllToAll(cnt, pr.rank, out)
	for d := range out {
		out[d] = pr.c.wireCopy(out[d])
	}
	return pr.c.exchangeRound(xkey{tag: tag, base: 0, n: pr.c.p}, pr.rank, out)
}

// Extent is a maximal run of consecutive records (in some scan order)
// sharing one destination index.
type Extent struct {
	Dst   int32
	Count int32
}

// SendPlan is a compiled partition of one source buffer across the
// destinations of a collective: per-destination record counts plus the
// run-length-encoded destination sequence in scan order. The pass planners
// in internal/core compile their oblivious permutations into SendPlans once
// (or once per round) and replay them every round.
type SendPlan struct {
	Counts []int32
	Exts   []Extent
}

// AllToAllPlan is the planned all-to-all collective: it partitions src
// directly into one pooled buffer per destination in a single pass over
// the data (no intermediate per-message slices), charges the packing copy
// and the per-destination messages to cnt, and runs the round through the
// exchange board. src is still owned by the caller when it returns; the
// received buffers are owned by the caller as with AllToAll.
func (pr *Proc) AllToAllPlan(cnt *sim.Counters, tag int, src record.Slice, plan *SendPlan, pool *record.Pool) ([]record.Slice, error) {
	p := pr.c.p
	if len(plan.Counts) != p {
		return nil, fmt.Errorf("cluster: planned all-to-all with %d destinations on %d processors", len(plan.Counts), p)
	}
	out := record.GetHeaders(p)
	pr.packInto(out, src, plan, pool)
	if cnt != nil {
		cnt.MovedBytes += int64(len(src.Data))
	}
	in, err := pr.AllToAll(cnt, tag, out)
	record.PutHeaders(out)
	return in, err
}

// packInto partitions src across out according to plan, drawing each
// destination buffer from pool: one batched copy per extent. The fill
// offsets live in per-Proc scratch so a steady-state round allocates
// nothing.
func (pr *Proc) packInto(out []record.Slice, src record.Slice, plan *SendPlan, pool *record.Pool) {
	z := src.Size
	if cap(pr.packOffs) < len(out) {
		pr.packOffs = make([]int32, len(out))
	}
	offs := pr.packOffs[:len(out)]
	for d := range out {
		out[d] = pool.Get(int(plan.Counts[d]), z)
		offs[d] = 0
	}
	pos := 0
	for _, e := range plan.Exts {
		d, n := int(e.Dst), int(e.Count)
		f := int(offs[d])
		copy(out[d].Data[f*z:(f+n)*z], src.Data[pos*z:(pos+n)*z])
		offs[d] = int32(f + n)
		pos += n
	}
}

// Broadcast sends root's buffer to every processor and returns each
// processor's copy (the root's own buffer is returned as-is).
func (pr *Proc) Broadcast(cnt *sim.Counters, root, tag int, recs record.Slice) (record.Slice, error) {
	if pr.rank == root {
		for q := 0; q < pr.c.p; q++ {
			if q == root {
				continue
			}
			cp := record.Make(recs.Len(), recs.Size)
			cp.Copy(recs)
			if err := pr.Send(cnt, q, tag, cp); err != nil {
				return record.Slice{}, err
			}
		}
		return recs, nil
	}
	return pr.Recv(root, tag)
}

// Gather collects every processor's buffer at root; non-roots receive nil.
func (pr *Proc) Gather(cnt *sim.Counters, root, tag int, recs record.Slice) ([]record.Slice, error) {
	if err := pr.Send(cnt, root, tag, recs); err != nil {
		return nil, err
	}
	if pr.rank != root {
		return nil, nil
	}
	all := make([]record.Slice, pr.c.p)
	for q := 0; q < pr.c.p; q++ {
		r, err := pr.Recv(q, tag)
		if err != nil {
			return nil, err
		}
		all[q] = r
	}
	return all, nil
}

// Run executes fn as rank 0..p−1 on p goroutine processors and waits for
// all of them. The first failure (error or panic) aborts the cluster,
// unblocking peers; Run returns that first failure.
func Run(p int, fn func(*Proc) error) error {
	return RunCtx(context.Background(), p, fn)
}

// RunCtx is Run under a context, on the default zero-copy fabric.
func RunCtx(ctx context.Context, p int, fn func(*Proc) error) error {
	return RunCtxFabric(ctx, p, ZeroCopy, fn)
}

// RunCtxFabric is Run under a context with an explicit fabric mode: when
// ctx is cancelled the whole fabric is aborted — every processor blocked in
// a send, receive, collective or barrier unblocks with ErrAborted — and the
// call returns an error wrapping ctx's cause (so errors.Is(err,
// context.Canceled) and DeadlineExceeded work) once every processor
// goroutine has unwound. No goroutine outlives the call.
func RunCtxFabric(ctx context.Context, p int, fabric Fabric, fn func(*Proc) error) error {
	c := NewFabric(p, fabric)
	errs := make([]error, p)
	var wg sync.WaitGroup
	// The watcher turns a context cancellation into a fabric abort; done is
	// closed after all ranks unwind so the watcher never outlives RunCtx.
	done := make(chan struct{})
	if ctx.Done() != nil {
		var watch sync.WaitGroup
		watch.Add(1)
		go func() {
			defer watch.Done()
			select {
			case <-ctx.Done():
				c.abort(ctx.Err())
			case <-done:
			}
		}()
		defer watch.Wait()
		defer close(done)
	}
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("cluster: rank %d panicked: %v", rank, r)
					c.abort(errs[rank])
				}
			}()
			if err := fn(&Proc{rank: rank, c: c}); err != nil {
				errs[rank] = err
				c.abort(err)
			}
		}(rank)
	}
	wg.Wait()
	// Prefer a non-abort error (the root cause) over cascaded aborts.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		// Reached only when EVERY failing rank reported a cascaded abort —
		// a genuine root-cause error would have been returned by the loop
		// above. The abort's recorded cause can then only be one supplied
		// from outside the ranks: the watcher's ctx.Err(). Attribute the
		// failure to it so callers see context.Canceled/DeadlineExceeded.
		c.barrierMu.Lock()
		cause := c.abortCause
		c.barrierMu.Unlock()
		if cause != nil && !errors.Is(cause, ErrAborted) {
			return fmt.Errorf("%w: %w", ErrAborted, cause)
		}
	}
	return first
}
