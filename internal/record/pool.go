package record

import (
	"math/bits"
	"sync"
)

// Pool is a size-classed free list of record buffers, the fixed buffer pool
// of the paper's threaded implementation: every pipeline stage Gets its
// column, message, and write buffers from the pool and Puts them back when
// the records have moved on, so the steady state of a pass performs no
// allocator work at all. Buffers are classed by power-of-two byte capacity;
// a Get that misses its class allocates a buffer whose capacity is the full
// class size, so the buffer is reusable for any request of the class.
//
// A Pool is safe for concurrent use; the out-of-core passes share one pool
// per processor across all pipeline-stage goroutines. Buffers may migrate
// between processors (a message buffer is Get from the sender's pool and
// Put into the receiver's): a Pool places no provenance requirement on the
// buffers it is handed.
//
// Ownership discipline: Put only a Slice you own outright — the value
// returned by Get (or Make, or received from a message), never a Sub view
// whose parent is still live, and never a buffer another goroutine can
// still reach. A nil *Pool is valid and degenerates to plain allocation:
// Get falls back to Make and Put drops the buffer, so pooling can be
// threaded through code paths optionally.
type Pool struct {
	mu      sync.Mutex
	classes [poolClasses][][]byte
}

// poolClasses bounds the largest class at 2^47 bytes, far beyond any
// simulated column buffer.
const poolClasses = 48

// maxPerClass bounds the free buffers retained per size class. The pipeline
// depth bounds how many buffers of a class are ever simultaneously live, so
// a small multiple of it suffices; anything beyond is released to the GC.
const maxPerClass = 32

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// empty is the zero-length backing of Get(0, size), non-nil so that callers
// distinguishing "no message" (nil Data) from "empty message" keep working.
var empty = make([]byte, 0)

// Get returns a Slice of n records of the given size, reusing a pooled
// buffer when one is available. The contents are NOT zeroed: callers must
// fully overwrite the records they read.
func (p *Pool) Get(n, size int) Slice {
	if p == nil {
		return Make(n, size)
	}
	if err := CheckSize(size); err != nil {
		panic(err)
	}
	return Slice{Data: p.GetBytes(n * size), Size: size}
}

// Put returns a buffer to the pool. The buffer's full capacity is recycled:
// a later Get may return it at any length up to that capacity. Putting an
// empty or over-large buffer is a no-op, so Put(s) is always safe on a
// Slice obtained from Get.
func (p *Pool) Put(s Slice) {
	if p == nil {
		return
	}
	c := cap(s.Data)
	if c < MinSize {
		return
	}
	k := bits.Len(uint(c)) - 1 // floor(log2(cap)): cap ∈ [2^k, 2^(k+1))
	if k >= poolClasses {
		return
	}
	buf := s.Data[:c]
	p.mu.Lock()
	if len(p.classes[k]) < maxPerClass {
		p.classes[k] = append(p.classes[k], buf)
	}
	p.mu.Unlock()
}

// GetBytes returns a raw byte buffer of length n from the size-classed
// free lists — the allocation primitive Get wraps with a record shape,
// also used directly by clients (the async disk layer's prefetch staging
// and write-behind snapshots, pooled MemDisk backings) whose extents are
// byte- not record-shaped. The contents are NOT zeroed. A nil pool falls
// back to plain allocation.
func (p *Pool) GetBytes(n int) []byte {
	if n <= 0 {
		return empty
	}
	if p == nil {
		return make([]byte, n)
	}
	k := bits.Len(uint(n - 1)) // ceil(log2(n))
	if k >= poolClasses {
		return make([]byte, n)
	}
	p.mu.Lock()
	free := p.classes[k]
	if ln := len(free); ln > 0 {
		buf := free[ln-1]
		free[ln-1] = nil
		p.classes[k] = free[:ln-1]
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<k)
}

// PutBytes recycles a buffer obtained from GetBytes (or any whole buffer
// the caller owns outright) into the byte pool. Like Put, the buffer's full
// capacity is recycled and empty or over-large buffers are dropped.
func (p *Pool) PutBytes(b []byte) {
	if p == nil {
		return
	}
	p.Put(Slice{Data: b, Size: MinSize})
}

// FreeBuffers reports the number of idle buffers currently held, for tests
// and introspection.
func (p *Pool) FreeBuffers() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, c := range p.classes {
		total += len(c)
	}
	return total
}

// FreeBytes reports the total capacity, in bytes, of the idle buffers
// currently held — the pool-occupancy figure an engine's stats snapshot
// reports as warm reusable memory.
func (p *Pool) FreeBytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, c := range p.classes {
		for _, b := range c {
			total += int64(cap(b))
		}
	}
	return total
}

// Spares is a bounded free list of reusable working memory — a pass's sort
// scratch, its scatter tables, the slice headers below — that a finished
// user hands back for the next one, of this job or any other. Get takes the
// most recently returned value (warmest in cache); Put keeps a value unless
// max of them are already kept, and drops it to the GC otherwise. A plain
// mutex-guarded list rather than a sync.Pool: the values are requested on
// every pass or round, and sync.Pool's per-GC clearing would turn each
// collection into a fresh burst of allocations.
type Spares[T any] struct {
	mu   sync.Mutex
	free []T
	max  int
}

// NewSpares returns an empty list that keeps at most max values.
func NewSpares[T any](max int) *Spares[T] { return &Spares[T]{max: max} }

// Get pops a kept value; ok is false when the list is empty.
func (l *Spares[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x, l.free[n-1] = l.free[n-1], x
	l.free = l.free[:n-1]
	return x, true
}

// Put keeps x for a later Get, if the list has room. The caller must not
// use x afterwards.
func (l *Spares[T]) Put(x T) {
	l.mu.Lock()
	if len(l.free) < l.max {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// headers recycles the small []Slice arrays (per-destination message
// vectors, per-column write vectors) that travel between pipeline stages
// alongside pooled record buffers.
var headers = NewSpares[[]Slice](256)

// GetHeaders returns a []Slice of length n with all elements zeroed.
func GetHeaders(n int) []Slice {
	for {
		h, ok := headers.Get()
		if !ok {
			return make([]Slice, n)
		}
		if cap(h) >= n { // a shorter one is dropped
			h = h[:n]
			clear(h)
			return h
		}
	}
}

// PutHeaders recycles a []Slice obtained from GetHeaders. The caller must
// not retain the slice (or any alias of it) afterwards.
func PutHeaders(h []Slice) {
	if cap(h) > 0 {
		headers.Put(h[:0])
	}
}

// NewPools builds one pool per processor of a simulated machine.
func NewPools(p int) []*Pool {
	pools := make([]*Pool, p)
	for i := range pools {
		pools[i] = NewPool()
	}
	return pools
}
