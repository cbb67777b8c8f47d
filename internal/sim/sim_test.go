package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCountersAdd(t *testing.T) {
	a := Counters{DiskReadBytes: 1, DiskWriteBytes: 2, DiskReadOps: 3, DiskWriteOps: 4,
		NetBytes: 5, NetMsgs: 6, LocalBytes: 7, LocalMsgs: 8,
		CompareUnits: 9, MovedBytes: 10, Rounds: 11}
	b := a
	a.Add(b)
	if a.DiskReadBytes != 2 || a.Rounds != 22 || a.CompareUnits != 18 || a.LocalMsgs != 16 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestSortWork(t *testing.T) {
	if SortWork(0) != 0 || SortWork(1) != 1 {
		t.Fatal("SortWork base cases wrong")
	}
	if SortWork(1024) != 1024*10 {
		t.Fatalf("SortWork(1024) = %d", SortWork(1024))
	}
	if SortWork(1025) != 1025*11 {
		t.Fatalf("SortWork(1025) = %d", SortWork(1025))
	}
}

func TestMergeWork(t *testing.T) {
	if MergeWork(100, 1) != 0 {
		t.Fatal("1-way merge should be free")
	}
	if MergeWork(100, 2) != 100 {
		t.Fatal("2-way merge = n")
	}
	if MergeWork(100, 8) != 300 {
		t.Fatal("8-way merge = 3n")
	}
	if MergeWork(100, 5) != 300 {
		t.Fatal("5-way merge = n·⌈lg 5⌉ = 3n")
	}
}

func TestEstimatePassDiskBound(t *testing.T) {
	cm := Beowulf2003()
	// One processor reading+writing 1 GiB with no other work: time should
	// be ≈ 2 GiB / 40 MiB/s ≈ 51.2 s.
	c := Counters{DiskReadBytes: 1 << 30, DiskWriteBytes: 1 << 30}
	e := cm.EstimatePass([]Counters{c}, 1)
	if math.Abs(e.Disk-51.2) > 0.1 {
		t.Fatalf("disk time %.2f, want ≈51.2", e.Disk)
	}
	if e.Total < e.Disk {
		t.Fatal("total below dominant resource")
	}
}

func TestEstimatePassMultiDiskScaling(t *testing.T) {
	cm := Beowulf2003()
	c := Counters{DiskReadBytes: 1 << 30, DiskReadOps: 100}
	one := cm.EstimatePass([]Counters{c}, 1)
	four := cm.EstimatePass([]Counters{c}, 4)
	if math.Abs(one.Disk/four.Disk-4) > 0.01 {
		t.Fatalf("4 disks should be 4× faster: %.2f vs %.2f", one.Disk, four.Disk)
	}
}

func TestEstimatePassMaxOverProcs(t *testing.T) {
	cm := Beowulf2003()
	light := Counters{DiskReadBytes: 1 << 20}
	heavy := Counters{DiskReadBytes: 1 << 30}
	e := cm.EstimatePass([]Counters{light, heavy, light}, 1)
	solo := cm.EstimatePass([]Counters{heavy}, 1)
	if e.Disk != solo.Disk {
		t.Fatal("pass time should be the max over processors")
	}
}

func TestEstimatePassOverlap(t *testing.T) {
	cm := Beowulf2003()
	cm.OverlapLoss = 0
	c := Counters{DiskReadBytes: 1 << 30, NetBytes: 1 << 30, CompareUnits: 1 << 30}
	e := cm.EstimatePass([]Counters{c}, 1)
	want := math.Max(e.Disk, math.Max(e.Net, e.CPU))
	if math.Abs(e.Total-want) > 1e-9 {
		t.Fatalf("with zero loss total %.3f should equal dominant %.3f", e.Total, want)
	}
	cm.OverlapLoss = 1
	e = cm.EstimatePass([]Counters{c}, 1)
	if math.Abs(e.Total-(e.Disk+e.Net+e.CPU)) > 1e-9 {
		t.Fatal("with full loss total should be the sum")
	}
}

func TestEstimateRunSumsPasses(t *testing.T) {
	cm := Beowulf2003()
	c := Counters{DiskReadBytes: 1 << 28}
	run := cm.EstimateRun([][]Counters{{c}, {c}, {c}}, 1)
	if len(run.Passes) != 3 {
		t.Fatal("pass count wrong")
	}
	if math.Abs(run.Total-3*run.Passes[0].Total) > 1e-9 {
		t.Fatal("run total should be the sum of pass totals")
	}
}

// TestEstimateRunSplitsDisks: each pass's counter sets share the machine's
// disks evenly — an engine pass's P sets D/P each, a single set all D.
func TestEstimateRunSplitsDisks(t *testing.T) {
	cm := Beowulf2003()
	c := Counters{DiskReadBytes: 1 << 28, DiskReadOps: 64}
	run := cm.EstimateRun([][]Counters{{c, c, c, c}, {c}}, 8)
	if want := cm.EstimatePass([]Counters{c, c, c, c}, 2); run.Passes[0] != want {
		t.Errorf("4-set pass on 8 disks: %+v, want 2 disks per set: %+v", run.Passes[0], want)
	}
	if want := cm.EstimatePass([]Counters{c}, 8); run.Passes[1] != want {
		t.Errorf("1-set pass on 8 disks: %+v, want all 8 disks: %+v", run.Passes[1], want)
	}
}

func TestRoundOverheadCharged(t *testing.T) {
	cm := Beowulf2003()
	a := cm.EstimatePass([]Counters{{Rounds: 10}}, 1)
	b := cm.EstimatePass([]Counters{{Rounds: 20}}, 1)
	if b.Overhead <= a.Overhead {
		t.Fatal("more rounds must cost more overhead")
	}
}

// TestBaselineRatioFourThirds anchors experiment E10: with pure I/O
// counters, a 4-pass run costs exactly 4/3 of a 3-pass run.
func TestBaselineRatioFourThirds(t *testing.T) {
	cm := Beowulf2003()
	pass := []Counters{{DiskReadBytes: 1 << 30, DiskWriteBytes: 1 << 30}}
	three := cm.EstimateRun([][]Counters{pass, pass, pass}, 1)
	four := cm.EstimateRun([][]Counters{pass, pass, pass, pass}, 1)
	if math.Abs(four.Total/three.Total-4.0/3.0) > 1e-9 {
		t.Fatalf("4-pass/3-pass = %.4f, want 4/3", four.Total/three.Total)
	}
}

func TestEstimateMonotoneQuick(t *testing.T) {
	cm := Beowulf2003()
	f := func(rb, wb uint32, ops uint16) bool {
		base := Counters{DiskReadBytes: int64(rb), DiskWriteBytes: int64(wb), DiskReadOps: int64(ops)}
		more := base
		more.DiskReadBytes += 1 << 20
		a := cm.EstimatePass([]Counters{base}, 2)
		b := cm.EstimatePass([]Counters{more}, 2)
		return b.Total >= a.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatePassZeroDisks(t *testing.T) {
	cm := Beowulf2003()
	// disksPerProc below 1 must clamp, not divide by zero.
	e := cm.EstimatePass([]Counters{{DiskReadBytes: 1 << 20}}, 0)
	if e.Disk <= 0 || math.IsInf(e.Disk, 0) || math.IsNaN(e.Disk) {
		t.Fatalf("bad disk estimate %v", e.Disk)
	}
}

func TestPassEstimateString(t *testing.T) {
	e := PassEstimate{Disk: 1, Net: 2, CPU: 3, Overhead: 4, Total: 10}
	if e.String() == "" {
		t.Fatal("empty String()")
	}
}
