package pdm

import "sync"

// stripedDisk is one spilled run presented as a striped object over the
// machine's D disks, the way a store column is: D LANES at stripe
// granularity over the run's single backing disk. Each lane is a full
// per-disk layer stack of its own (service-time head, injector, context,
// write-behind / prefetch worker), so a run is written and read at D disks'
// bandwidth; the backing stays ONE disk — one file, one fsync, one manifest
// line — and everything above (merge.Writer, merge.Reader, Run.Scrub,
// SyncDisk, DiskPath) sees an ordinary Disk + Prefetcher + Flusher.
//
// Logical offset o lives on lane (o / stripe) mod D at lane-local offset
// (o / stripe / D)·stripe + o mod stripe — DiskArray's map, which is what
// the front end is — so sequential logical access is sequential on every
// lane. Underneath its stack a lane maps its local offsets back to the same
// logical offsets of the backing disk (spillLane), so the bytes on the
// backing are laid out exactly as an unstriped spill lays them out.
//
// Like any DiskArray, a stripedDisk has one owner at a time: a run is
// written by one goroutine, then read by one. The front end latches the
// first read or hint and refuses every later write, as an AsyncDisk does,
// so a write is never split between lanes that take it and lanes that
// refuse it.
type stripedDisk struct {
	arr  *DiskArray // the front end: the D lane stacks, striped
	read bool       // a read or hint was issued: writes are refused

	mu      sync.Mutex // the lanes' workers share backing, which need not be concurrency-safe
	backing Disk
}

// newStripedDisk stripes backing over d lanes; wrap stacks one lane's
// per-disk layers over its view of the backing disk.
func newStripedDisk(backing Disk, d, stripeBytes int, wrap func(view Disk, lane int) Disk) *stripedDisk {
	s := &stripedDisk{backing: backing, arr: NewDiskArray(make([]Disk, d), stripeBytes)}
	for l := range s.arr.Disks {
		s.arr.Disks[l] = wrap(spillLane{s, int64(l)}, l)
	}
	return s
}

func (s *stripedDisk) ReadAt(p []byte, off int64) error {
	s.read = true
	return s.arr.ReadAt(nil, p, off)
}

func (s *stripedDisk) WriteAt(p []byte, off int64) error {
	if s.read {
		return errWriteAfterRead(off)
	}
	return s.arr.WriteAt(nil, p, off)
}

func (s *stripedDisk) Prefetch(off int64, n int) {
	s.read = true
	s.arr.Prefetch(off, n)
}

// Flush drains every lane's write-behind queue and returns the first
// deferred write error latched on any of them.
func (s *stripedDisk) Flush() error { return s.arr.Flush() }

// Unwrap returns the run's one backing disk (see DiskFile).
func (s *stripedDisk) Unwrap() Disk { return s.backing }

// Close drains and stops every lane, then closes the backing disk once.
func (s *stripedDisk) Close() error {
	err := s.arr.Close()
	if cerr := s.backing.Close(); err == nil {
		err = cerr
	}
	return err
}

// spillLane is the bottom of one lane's stack: the lane's byte address space
// mapped onto the shared backing disk, one lane at a time.
type spillLane struct {
	s    *stripedDisk
	lane int64
}

func (l spillLane) ReadAt(p []byte, off int64) error  { return l.transfer(p, off, true) }
func (l spillLane) WriteAt(p []byte, off int64) error { return l.transfer(p, off, false) }

// transfer splits a lane-local extent at stripe boundaries (neighbouring
// lane stripes are D stripes apart on the backing disk) and issues each
// piece at its logical offset.
func (l spillLane) transfer(p []byte, off int64, read bool) error {
	stripe := l.s.arr.StripeBytes
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	for len(p) > 0 {
		n := min(int64(len(p)), stripe-off%stripe)
		var err error
		// The inverse of DiskArray.locate: lane-local off to its logical offset.
		at := (off/stripe*int64(len(l.s.arr.Disks))+l.lane)*stripe + off%stripe
		if read {
			err = l.s.backing.ReadAt(p[:n], at)
		} else {
			err = l.s.backing.WriteAt(p[:n], at)
		}
		if err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

// Close is a no-op: the stripedDisk closes the shared backing disk once,
// after every lane has drained.
func (l spillLane) Close() error { return nil }
