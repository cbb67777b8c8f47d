// Package sim provides the operation accounting and the calibrated cost
// model that stand in for the paper's Beowulf testbed.
//
// The out-of-core algorithms in internal/core run for real (they genuinely
// move every record through simulated disks and a message-passing cluster),
// and while doing so they count operations: bytes and contiguous segments
// per disk, bytes and messages over the network, comparison work and record
// movement in the CPU stages, and pipeline rounds. Those counts are exact
// and machine-independent.
//
// A CostModel maps counts to estimated seconds on a reference machine. The
// default model is calibrated to the paper's testbed (Section 5): dual
// 1.5 GHz P4 Xeon nodes, one Ultra-160 10k RPM SCSI disk per node, Myrinet
// at 250 MB/s peak. Absolute seconds are approximate by construction; the
// quantities the reproduction relies on — which algorithm wins, pass-count
// ratios, buffer-size effects — are ratios of counted work and are
// insensitive to the constants.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Counters accumulates the operations one processor performs during one
// pass. Each processor owns its Counters value (no sharing, no atomics);
// aggregation happens after the run. The JSON tags are the wire
// representation of the colsort-server's job summaries and metrics;
// TestWireEncodingGolden (root package) pins them.
type Counters struct {
	// Disk traffic on the disks this processor owns.
	DiskReadBytes  int64 `json:"disk_read_bytes"`
	DiskWriteBytes int64 `json:"disk_write_bytes"`
	DiskReadOps    int64 `json:"disk_read_ops"`  // contiguous segments read (≈ seeks)
	DiskWriteOps   int64 `json:"disk_write_ops"` // contiguous segments written (≈ seeks)

	// Network traffic sent by this processor. Self-destined messages are
	// counted separately: they cost a memory copy but no wire time.
	NetBytes   int64 `json:"net_bytes"`
	NetMsgs    int64 `json:"net_msgs"`
	LocalBytes int64 `json:"local_bytes"`
	LocalMsgs  int64 `json:"local_msgs"`

	// CPU work. CompareUnits approximates comparison work (n·⌈lg n⌉ for a
	// sort of n, n·⌈lg k⌉ for a k-way merge); MovedBytes counts record
	// bytes copied in memory — by sort gathers, merges (half merges
	// included), permute stages, message packing and half-column copies —
	// each copy charged once, where it happens. A fabric's transport copy
	// is network traffic, not a move.
	CompareUnits int64 `json:"compare_units"`
	MovedBytes   int64 `json:"moved_bytes"`

	// Rounds counts pipeline rounds this processor participated in.
	Rounds int64 `json:"rounds"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.DiskReadBytes += o.DiskReadBytes
	c.DiskWriteBytes += o.DiskWriteBytes
	c.DiskReadOps += o.DiskReadOps
	c.DiskWriteOps += o.DiskWriteOps
	c.NetBytes += o.NetBytes
	c.NetMsgs += o.NetMsgs
	c.LocalBytes += o.LocalBytes
	c.LocalMsgs += o.LocalMsgs
	c.CompareUnits += o.CompareUnits
	c.MovedBytes += o.MovedBytes
	c.Rounds += o.Rounds
}

// SortWork returns the CompareUnits charge for a comparison sort of n
// records: n·⌈lg n⌉.
func SortWork(n int) int64 {
	if n <= 1 {
		return int64(n)
	}
	return int64(n) * int64(bits.Len(uint(n-1)))
}

// MergeWork returns the CompareUnits charge for a k-way merge of n total
// records: n·⌈lg k⌉ (a loser tree does one comparison per level).
func MergeWork(n, k int) int64 {
	if k <= 1 {
		return 0
	}
	return int64(n) * int64(bits.Len(uint(k-1)))
}

// CostModel holds the calibrated constants of the reference machine.
type CostModel struct {
	DiskBandwidth float64 // bytes/sec sustained per disk
	SeekTime      float64 // seconds per discontiguous disk access
	NetBandwidth  float64 // bytes/sec effective per processor link
	MsgLatency    float64 // seconds per message
	CompareRate   float64 // CompareUnits/sec
	MemBandwidth  float64 // bytes/sec for in-memory record movement
	RoundOverhead float64 // seconds of pipeline stage-switch cost per round

	// OverlapLoss is the fraction of non-dominant resource time that is NOT
	// hidden behind the dominant resource. A perfectly pipelined pass has
	// loss 0 (total = max of the per-resource times); 1 means fully serial.
	OverlapLoss float64
}

// Beowulf2003 returns the cost model calibrated to the paper's cluster.
//
// Calibration anchors (Section 5, Figure 2): a 3-pass baseline I/O run
// costs ≈150 s per GB/processor (⇒ ~40 MB/s effective disk rate); the
// 4-pass baseline is 4/3 of that; halving the buffer from 2²⁵ to 2²⁴ bytes
// adds ≈10 % through extra pipeline switching; M-columnsort sits well above
// the 3-pass baseline but below subblock columnsort.
func Beowulf2003() CostModel {
	return CostModel{
		DiskBandwidth: 40 << 20,  // 40 MiB/s sustained SCSI
		SeekTime:      2e-3,      // effective: write-behind coalesces most of the 8 ms raw seek
		NetBandwidth:  125 << 20, // half of Myrinet peak per direction
		MsgLatency:    60e-6,     // MPI-era point-to-point latency
		CompareRate:   30e6,      // 1.5 GHz P4, ~50 cycles/compare-move
		MemBandwidth:  1 << 30,   // PC800-era copy bandwidth
		RoundOverhead: 0.05,      // thread/stage switching per pipeline round
		OverlapLoss:   0.10,      // pipelines hide most non-dominant work
	}
}

// PassEstimate is the estimated wall time of one pass, broken down by
// resource. Total = max(resources) + OverlapLoss·(sum − max) + Overhead.
type PassEstimate struct {
	Disk, Net, CPU float64 // per-resource busy time (max over processors)
	Overhead       float64
	Total          float64
}

// EstimatePass estimates the wall time of a pass from per-processor
// counters. disksPerProc is D/P: a processor's reads and writes stripe
// across its disks in parallel.
func (cm CostModel) EstimatePass(perProc []Counters, disksPerProc int) PassEstimate {
	if disksPerProc < 1 {
		disksPerProc = 1
	}
	var est PassEstimate
	var rounds int64
	for _, c := range perProc {
		disk := (float64(c.DiskReadBytes)+float64(c.DiskWriteBytes))/(cm.DiskBandwidth*float64(disksPerProc)) +
			float64(c.DiskReadOps+c.DiskWriteOps)/float64(disksPerProc)*cm.SeekTime
		net := float64(c.NetBytes)/cm.NetBandwidth + float64(c.NetMsgs)*cm.MsgLatency
		cpu := float64(c.CompareUnits)/cm.CompareRate + float64(c.MovedBytes)/cm.MemBandwidth
		est.Disk = math.Max(est.Disk, disk)
		est.Net = math.Max(est.Net, net)
		est.CPU = math.Max(est.CPU, cpu)
		if c.Rounds > rounds {
			rounds = c.Rounds
		}
	}
	est.Overhead = float64(rounds) * cm.RoundOverhead
	sum := est.Disk + est.Net + est.CPU
	dominant := math.Max(est.Disk, math.Max(est.Net, est.CPU))
	est.Total = dominant + cm.OverlapLoss*(sum-dominant) + est.Overhead
	return est
}

// RunEstimate sums pass estimates into a whole-run estimate.
type RunEstimate struct {
	Passes []PassEstimate
	Total  float64
}

// EstimateRun estimates a multi-pass run on a machine of d disks: passes do
// not overlap each other (each pass must finish writing before the next can
// read). The counter sets of a pass split the d disks evenly: each of an
// engine pass's P sets is served by its processor's d/P disks, the single
// set of a hierarchical pass by all d.
func (cm CostModel) EstimateRun(passes [][]Counters, d int) RunEstimate {
	var run RunEstimate
	for _, pc := range passes {
		e := cm.EstimatePass(pc, d/max(len(pc), 1))
		run.Passes = append(run.Passes, e)
		run.Total += e.Total
	}
	return run
}

func (e PassEstimate) String() string {
	return fmt.Sprintf("disk %.2fs net %.2fs cpu %.2fs ovh %.2fs → %.2fs",
		e.Disk, e.Net, e.CPU, e.Overhead, e.Total)
}
