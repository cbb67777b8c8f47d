package main

import (
	"runtime"
	"sync"
	"time"
)

// The sandbox is a shared host. The same instruction stream takes up to 1.5x
// longer for minutes at a time while neighbours load the machine (measured
// here: a 64 MiB hierarchical sort moved between 0.65 s and 1.05 s and stayed
// there for a hundred repetitions), and no statistic over one run of a few
// seconds removes a shift that outlasts the run. The probe is the benchmark's
// yardstick for the machine's speed at one moment: it runs before and after
// every timed operation, and the operation's time is reported scaled by
// (the probe's quiet time) / (mean of the two probes).
//
// What the probe is made of was chosen by measurement: seven candidate loops
// were run between the repetitions of three of the workloads for twelve
// minutes, half of them loud. A chain of dependent loads through a table
// larger than the private cache sees a neighbour in the memory system; a
// chain of dependent arithmetic sees almost nothing, because it leaves most of
// the core idle and a neighbour on the core's other hardware thread takes
// only what is idle; four independent arithmetic chains, which fill the core,
// see that neighbour more than a sort does. The load chain and the four
// chains, in equal parts at quiet speed, on every core at once, tracked all
// three workloads: over eight-second windows the spread of a sort's median
// went from 23-26 % as measured to 3.5-4.3 % scaled (18-22 % with one
// arithmetic chain in place of four) and stayed at 2-4 % in the quiet half,
// and the medians of the two halves, 17-26 % apart as measured, came within
// 0.5-2.2 % of each other.
const probeTableLen = 1 << 22 // uint32 entries: 16 MiB, four times the private L2

// probeLoads and probeSpins are the lengths of the probe's two halves, about
// 15 ms each. The smoke test shortens them.
var (
	probeLoads = 1 << 17
	probeSpins = 6 << 20
)

// The time of one step of each half, in nanoseconds, on this class of sandbox
// when no neighbour is active (the floor of several thousand probes). They
// only fix the scale of the reported numbers; comparisons made on one machine
// do not depend on them.
const (
	probeQuietLoadNs = 107.0
	probeQuietSpinNs = 2.44
)

var (
	probeOnce  sync.Once
	probeTable []uint32
	probeSink  [procs]uint64 // keeps the compiler from dropping the loops
)

// probeInit builds the load chain: one cycle through every entry, in an order
// fixed by a constant seed, so every process probes the same chain.
func probeInit() {
	n := probeTableLen
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	probeTable = make([]uint32, n)
	for i := 0; i < n; i++ {
		probeTable[perm[i]] = perm[(i+1)%n]
	}
}

// probe is the fastest of rounds rounds, each one probeThread on every core
// the workloads can use, timed until the last has ended: a neighbour that
// takes a core away shows, as does one that loads the memory system. The
// fastest, because a burst that slows one round of 30 ms is not the speed the
// operation beside it saw: in a loud hour, over eight-second windows, the
// spread of the hier-uniform sort's median was 10.8 % scaled by one round on
// each side and 5.7 % by the fastest of three (16.9 % as measured).
func probe(rounds int) time.Duration {
	probeOnce.Do(probeInit)
	threads := min(runtime.GOMAXPROCS(0), procs)
	var fastest time.Duration
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				probeSink[g] = probeThread(uint32(g+1) * 0x9e3779b1 % probeTableLen)
			}()
		}
		wg.Wait()
		if d := time.Since(t0); r == 0 || d < fastest {
			fastest = d
		}
	}
	return fastest
}

// probeThread follows the load chain from entry p, then spins four
// independent xorshift chains.
func probeThread(p uint32) uint64 {
	for i := 0; i < probeLoads; i++ {
		p = probeTable[p]
	}
	a, b, c, d := uint64(p)|1, uint64(3), uint64(5), uint64(7)
	for i := 0; i < probeSpins; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	return a ^ b ^ c ^ d
}

// probeQuiet is what probe returns on the quiet machine.
func probeQuiet() time.Duration {
	return time.Duration(float64(probeLoads)*probeQuietLoadNs + float64(probeSpins)*probeQuietSpinNs)
}

// timing is one operation's wall time: as measured, and scaled to the quiet
// machine — what it would have taken had the probes around it read their
// quiet time.
type timing struct{ raw, quiet time.Duration }

// timed runs op between two probes of three rounds each. A probe that ended
// within the last few milliseconds — the one that closed the previous
// operation — is reused as the opening probe of this one.
func timed(op func() error) (timing, error) { return timedBy(3, op) }

// timedBy is timed with probes of the given rounds; the staged replay, whose
// hundred stage repetitions carry no bound, uses one.
func timedBy(rounds int, op func() error) (timing, error) {
	before := lastProbe
	if time.Since(lastProbeAt) > 5*time.Millisecond {
		before = probe(rounds)
	}
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	after := probe(rounds)
	lastProbe, lastProbeAt = after, time.Now()
	scale := 2 * float64(probeQuiet()) / float64(before+after)
	return timing{raw: d, quiet: time.Duration(float64(d) * scale)}, err
}

// The most recent closing probe; timed is never called concurrently.
var (
	lastProbe   time.Duration
	lastProbeAt time.Time
)

// timings collects the timings of repeated operations.
type timings struct{ raw, quiet []time.Duration }

func (ts *timings) add(t timing) {
	ts.raw = append(ts.raw, t.raw)
	ts.quiet = append(ts.quiet, t.quiet)
}
