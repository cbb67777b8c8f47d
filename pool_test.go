package colsort

// The engine's scratch-file pool (pdm.FilePool): a job on recycled files
// reports exactly what a job on memory disks reports, the files under
// Config.Dir never outnumber the disks the engine had open at once, a job's
// namespace is empty the moment it ends, and Close leaves Dir empty.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// poisonPool hands e's pool files of size bytes, every byte 0xA5.
func poisonPool(t *testing.T, e *Engine, files int, size int64) {
	t.Helper()
	b := e.m.Backend.(pdm.FileBackend)
	junk := bytes.Repeat([]byte{0xA5}, int(size))
	disks := make([]pdm.Disk, files)
	for i := range disks {
		d, err := b.NewDisk(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteAt(junk, 0); err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	for _, d := range disks {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// observe sorts raw on a new engine of cfg and renders what the job
// reports: the output's digest, Result.Summary() and TotalCounters(). It
// also returns the files under cfg.Dir before and after the job.
func observe(t *testing.T, cfg Config, raw []byte, poison func(*Engine), opts ...Option) (obs, before, after []string) {
	t.Helper()
	e, err := NewEngine(EngineConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if poison != nil {
		poison(e)
		before = testutil.StrayFiles(cfg.Dir, "")
	}
	var out bytes.Buffer
	res, err := e.Sort(context.Background(), FromBytes(raw), ToWriter(&out), opts...)
	if err != nil {
		t.Fatal(err)
	}
	summary, _ := json.Marshal(res.Summary())
	counters, _ := json.Marshal(res.TotalCounters())
	res.Close()
	if poison != nil {
		after = testutil.StrayFiles(cfg.Dir, "")
	}
	return []string{fmt.Sprintf("sha256 %x", sha256.Sum256(out.Bytes())), string(summary), string(counters)}, before, after
}

// TestPoisonedPoolDifferential runs single-run sorts (three algorithms,
// exact and padded N) and a multi-level hierarchical sort on file disks
// whose pool holds oversized files full of 0xA5, and requires every
// observable to equal the same sort's on memory disks.
func TestPoisonedPoolDifferential(t *testing.T) {
	const z = 32
	base := Config{Procs: 4, MemPerProc: 256, RecordSize: z}
	probe, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	threaded := probe.MaxRecords(Threaded)
	async := base
	async.Async, async.StripeBytes = true, 3000
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int64
		opts []Option
	}{
		{"threaded", base, threaded, []Option{WithAlgorithm(Threaded)}},
		{"threaded/padded", base, threaded - 77, []Option{WithAlgorithm(Threaded)}},
		{"subblock", base, probe.MaxRecords(Subblock), []Option{WithAlgorithm(Subblock)}},
		{"subblock/padded/async", async, probe.MaxRecords(Subblock) - 333, []Option{WithAlgorithm(Subblock)}},
		{"m-columnsort", base, probe.MaxRecords(MColumn), []Option{WithAlgorithm(MColumn)}},
		{"hierarchical/fanin2", base, 12 * threaded, []Option{WithAlgorithm(Threaded), WithMergeFanIn(2)}},
		{"hierarchical/fanin2/async", async, 12*threaded + 5, []Option{WithAlgorithm(Threaded), WithMergeFanIn(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := genRaw(int(tc.n), z, record.Uniform{Seed: uint64(tc.n)})
			want, _, _ := observe(t, tc.cfg, raw, nil, tc.opts...)
			cfg := tc.cfg
			cfg.Dir = t.TempDir()
			testutil.CheckLeaks(t, cfg.Dir)
			const seeded = 64
			got, before, after := observe(t, cfg, raw, func(e *Engine) {
				poisonPool(t, e, seeded, tc.n*z+4096)
			}, tc.opts...)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("on a poisoned pool:\n got %s\nwant %s", got[i], want[i])
				}
			}
			// No file was created, and some were recycled: renamed twice.
			untouched := 0
			for _, f := range after {
				if slices.Contains(before, f) {
					untouched++
				}
			}
			if len(after) != seeded || untouched == seeded {
				t.Errorf("%d files after the job, %d of them untouched: want the job's disks all on the %d poisoned files", len(after), untouched, seeded)
			}
		})
	}
}

// TestScratchPoolBound runs jobs on both sides of the bound, one after
// another and then 2·P at once, on one file-backed engine: the files under
// Dir never outnumber the engine's peak count of open scratch disks, each
// job's namespace is empty the moment it ends, a checkpointed job draws its
// run files from the pool and returns them, and Close leaves Dir empty.
func TestScratchPoolBound(t *testing.T) {
	const p, z = 4, 32
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	testutil.CheckLeaks(t, scratch)
	e, err := NewEngine(EngineConfig{Config: Config{Procs: p, MemPerProc: 256, RecordSize: z, Dir: scratch, Async: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bound := e.MaxRecords(Threaded)

	var mu sync.Mutex
	checkBound := func() {
		mu.Lock()
		defer mu.Unlock()
		files := len(testutil.StrayFiles(scratch, ""))
		if _, peak, _ := e.pool.Stats(); files > peak {
			t.Errorf("%d files under Dir, but at most %d scratch disks were ever open at once", files, peak)
		}
	}
	sortJob := func(i int, opts ...Option) {
		n := bound/2 + int64(i)
		if i%2 == 1 {
			n = 3*bound + int64(i) // above the bound: runs and a merge
		}
		res, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: uint64(i)}, n), Discard(), opts...)
		if err != nil {
			t.Errorf("job %d: %v", i, err)
			return
		}
		res.Close()
		testutil.CheckNoStray(t, scratch, pdm.JobScratchPrefix(res.JobID))
		checkBound()
	}
	for i := 0; i < 4; i++ {
		sortJob(i)
	}

	done := make(chan struct{})
	polled := make(chan struct{})
	go func() { // sample the bound while the jobs run
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
				checkBound()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2*p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sortJob(10 + i)
		}()
	}
	wg.Wait()
	close(done)
	<-polled

	// Every disk came back. A checkpointed hierarchical job opens only
	// spill disks: its runs are pooled files renamed into its own
	// directory, and they all come back once it is done.
	open, _, free := e.pool.Stats()
	if open != 0 || free == 0 {
		t.Fatalf("after the jobs the pool has %d disks open, %d files free; want 0 and some", open, free)
	}
	pooled := testutil.StrayFiles(scratch, "")
	ckpt := filepath.Join(dir, "ckpt")
	sortJob(1, WithCheckpoint(ckpt))
	if open, _, after := e.pool.Stats(); open != 0 || after != free {
		t.Errorf("after the checkpointed job the pool has %d disks open, %d files free; want 0 and %d", open, after, free)
	}
	if after := testutil.StrayFiles(scratch, ""); slices.Equal(after, pooled) {
		t.Errorf("checkpointed job's runs did not come from the pool: Dir holds %v before and after", pooled)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("the finished checkpointed job left its directory (stat err %v)", err)
	}

	e.Close()
	if stray := testutil.StrayFiles(scratch, ""); len(stray) != 0 {
		t.Errorf("Close left %v under Dir", stray)
	}
}

// TestCheckpointOnPoisonedPool cancels a checkpointed job mid-merge on an
// engine whose pool holds oversized files full of 0xA5, which its runs are
// drawn from: each durable run file is exactly its run's bytes, every disk
// is closed, no goroutine is left, and the Sort called again outputs the
// reference bytes and hands its runs back to the pool.
func TestCheckpointOnPoisonedPool(t *testing.T) {
	const z = 32
	dir := t.TempDir()
	scratch, ckpt := filepath.Join(dir, "scratch"), filepath.Join(dir, "ckpt")
	testutil.CheckLeaks(t, scratch)
	e, err := NewEngine(EngineConfig{Config: Config{Procs: 4, MemPerProc: 256, RecordSize: z, Dir: scratch, Async: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	n := 12 * e.MaxRecords(Threaded)
	raw := genRaw(int(n), z, record.Uniform{Seed: 61})
	poisonPool(t, e, 24, n*z+4096)
	opts := []Option{WithAlgorithm(Threaded), WithMergeFanIn(2), WithCheckpoint(ckpt)}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := e.Sort(ctx, FromBytes(raw), Discard(), append(opts, WithProgress(func(ev Progress) {
		if ev.MergedRecords > 0 {
			once.Do(cancel) // inside the first merge: every formation run is durable
		}
	}))...)
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	st, err := readManifest(ckpt)
	if err != nil || st == nil || !st.ingestDone {
		t.Fatalf("crashed manifest: %+v, %v; want formation complete", st, err)
	}
	for _, r := range st.live {
		fi, err := os.Stat(r.Path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != r.Records*z {
			t.Fatalf("durable run %d holds %d bytes; want exactly its %d records' %d", r.ID, fi.Size(), r.Records, r.Records*z)
		}
	}
	open, _, free := e.pool.Stats()
	if open != 0 {
		t.Fatalf("the cancelled job left %d disks open", open)
	}

	var out bytes.Buffer
	res, err = e.Sort(context.Background(), FromBytes(raw), ToWriter(&out), opts...)
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer res.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("resumed output is not byte-identical to the reference")
	}
	if res.Merge.ResumedRuns != len(st.live) || res.Merge.BytesWritten == 0 {
		t.Errorf("ResumedRuns = %d, %d bytes spilled; want the %d durable runs, merged through runs of its own",
			res.Merge.ResumedRuns, res.Merge.BytesWritten, len(st.live))
	}
	if open, peak, after := e.pool.Stats(); open != 0 || after < free || len(testutil.StrayFiles(scratch, "")) > peak {
		t.Errorf("after the resume the pool has %d open, %d free (%d before), %d files under Dir (peak %d); want 0 open, no fewer free, at most the peak",
			open, after, free, len(testutil.StrayFiles(scratch, "")), peak)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("the finished job left its checkpoint directory (stat err %v)", err)
	}
}
