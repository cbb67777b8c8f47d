package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"colsort"
	"colsort/internal/cluster"
	"colsort/internal/core"
	"colsort/internal/incore"
	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/runform"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// replayer is the staged replay: the hier-uniform input pushed through each
// layer's exported functions in isolation, one span and one metric per call
// group. It measures what a layer costs when nothing else runs, so the sum of
// the stages on the hier-uniform path serialises what the real sort overlaps.
type replayer struct {
	ctx  context.Context
	sz   sizing
	dir  string
	seed uint64
	tr   *tracer
	m    metrics
	// path is the summed quiet time of the stages the hier-uniform sort
	// goes through; trace.coverage is path over that sort's own time.
	path time.Duration
}

// stage times fn between probes and records its span.
func (r *replayer) stage(name string, fn func() error) (timing, error) {
	if err := r.ctx.Err(); err != nil {
		return timing{}, err
	}
	start := time.Now()
	tm, err := timedBy(1, fn)
	r.tr.add(name, "replay", start, time.Now())
	if err != nil {
		return tm, fmt.Errorf("replay %s: %w", name, err)
	}
	return tm, nil
}

// rate runs a stage that moves bytes r.sz.stageReps times — prep, when not
// nil, before each, outside the timed region — and reports the median in MB/s
// under name. onPath says the hier-uniform sort goes through the stage. A
// stage that writes files pre-warms the page cache in its prep (see prewarm):
// without it the stage measures the sandbox's memory balloon.
func (r *replayer) rate(name string, bytes int64, onPath bool, prep, fn func() error) error {
	var ts timings
	for i := 0; i < r.sz.stageReps; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
		}
		tm, err := r.stage(name, fn)
		if err != nil {
			return err
		}
		ts.add(tm)
	}
	p50 := durQuantile(ts.quiet, 0.5)
	r.m.set(name, unitMBps, mbPerSec(bytes, p50))
	if onPath {
		r.path += p50
	}
	return nil
}

// mergeChunk is the chunk the hierarchical sort reads runs and emits output
// in — colsort's own rule (half a column buffer, shrunk so that the default
// fan-in of 16 plus the emit queue fit the memory cap), restated here because
// the replay must push the layers the same chunk the sort does.
func (r *replayer) mergeChunk() int {
	c := min(r.sz.mem/2, int(r.sz.hierCap/int64((16+4)*recSize)))
	return min(max(c, 64), 1<<16)
}

func replay(ctx context.Context, sz sizing, dir string, seed uint64, tr *tracer, m metrics, t *tally) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := &replayer{ctx: ctx, sz: sz, dir: dir, seed: seed, tr: tr, m: m}
	start := time.Now()
	defer func() { tr.add("replay", "", start, time.Now()) }()
	for _, part := range []func() error{
		r.hierPath, r.kway, r.disks, r.kernels, r.fabric, r.corePasses,
		func() error { return r.service(t) },
	} {
		if err := part(); err != nil {
			return err
		}
	}
	return nil
}

// hierPath replays the layers of the hier-uniform sort in the order the sort
// uses them: source, key codec and checksum, run formation, spill, merge,
// decode, sink — and times the real sort of the same input for the coverage.
func (r *replayer) hierPath() error {
	n, bytes := r.sz.hierRecords, r.sz.hierRecords*recSize
	capacity := int(r.sz.hierCap / recSize)
	chunk := r.mergeChunk()
	in := filepath.Join(r.dir, "in.dat")
	gen := uniform(r.seed)
	want, err := writeInput(in, gen, n)
	if err != nil {
		return err
	}
	recs, _ := fillInput(gen, n)
	codec, err := colsort.KeySpec{}.Compile(recSize)
	if err != nil {
		return err
	}

	if err := r.rate("source.read_mb_s", bytes, true, nil, func() error {
		got, rd, err := colsort.FromFile(in).Open(recSize)
		if err != nil {
			return err
		}
		defer rd.Close()
		rec := make([]byte, recSize)
		for i := int64(0); i < got; i++ {
			if err := rd.ReadRecord(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := r.rate("record.encode_checksum_mb_s", bytes, true, nil, func() error {
		var cs record.Checksum
		for i := 0; i < recs.Len(); i++ {
			rec := recs.Record(i)
			codec.EncodeRecord(rec)
			cs.Add(rec)
		}
		if !cs.Equal(want) {
			return fmt.Errorf("checksum of the encoded input differs from the generated input's")
		}
		return nil
	}); err != nil {
		return err
	}

	// Run formation, twice: a nearly-sorted input (discarded), then the
	// uniform one, whose runs stay in out for the spill and merge stages.
	type formedRun struct {
		recs record.Slice
		desc bool
	}
	out := record.Make(int(n), recSize) // the formed runs, end to end
	form := func(src record.Slice, keep *[]formedRun) func() error {
		return func() error {
			*keep = (*keep)[:0]
			next := 0
			f := runform.New(capacity, recSize, nil, func(rec []byte) (bool, error) {
				if next == src.Len() {
					return false, nil
				}
				copy(rec, src.Record(next))
				next++
				return true, nil
			})
			defer f.Close()
			pos := 0
			for {
				desc, ok, err := f.NextRun()
				if err != nil || !ok {
					return err
				}
				lo := pos
				for {
					got, err := f.Fill(out.Sub(pos, min(pos+chunk, out.Len())))
					if err != nil {
						return err
					}
					if got == 0 {
						break
					}
					pos += got
				}
				*keep = append(*keep, formedRun{recs: out.Sub(lo, pos), desc: desc})
			}
		}
	}
	var runs, sortedRuns []formedRun
	nearly, _ := fillInput(nearlySorted(r.seed), n)
	if err := r.rate("runform.form_sorted_mb_s", bytes, false, nil, form(nearly, &sortedRuns)); err != nil {
		return err
	}
	nearly, sortedRuns = record.Slice{}, nil
	if err := r.rate("runform.form_mb_s", bytes, true, nil, form(recs, &runs)); err != nil {
		return err
	}
	r.m.set("runform.runs", unitCount, float64(len(runs)))
	r.m.set("runform.run_len_over_cap", unitX, float64(n)/float64(len(runs))/float64(capacity))

	var spilled []*merge.Run
	closeSpilled := func() {
		for _, run := range spilled {
			run.Close()
		}
		spilled = spilled[:0]
	}
	defer closeSpilled()
	if err := r.rate("merge.spill_write_mb_s", bytes, true, func() error {
		closeSpilled()
		return prewarm(r.dir, bytes)
	}, func() error {
		for i, fr := range runs {
			d, err := pdm.NewFileDisk(filepath.Join(r.dir, fmt.Sprintf("run%d", i)))
			if err != nil {
				return err
			}
			w := merge.NewWriter(d, recSize, chunk)
			for lo := 0; lo < fr.recs.Len(); lo += chunk {
				if err := w.Append(fr.recs.Sub(lo, min(lo+chunk, fr.recs.Len()))); err != nil {
					d.Close()
					return err
				}
			}
			run, err := w.Finish()
			if err != nil {
				d.Close()
				return err
			}
			run.Descending = fr.desc
			spilled = append(spilled, run)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := r.rate("merge.merge_mb_s", bytes, true, nil, func() error {
		got, _, err := merge.Merge(r.ctx, spilled, func(record.Slice) error { return nil },
			merge.Options{ChunkRecs: chunk})
		if err == nil && !got.Equal(want) {
			err = fmt.Errorf("merged multiset differs from the generated input's")
		}
		return err
	}); err != nil {
		return err
	}

	if err := r.rate("record.decode_mb_s", bytes, true, nil, func() error {
		for lo := 0; lo < recs.Len(); lo += chunk {
			codec.Decode(recs.Sub(lo, min(lo+chunk, recs.Len())))
		}
		return nil
	}); err != nil {
		return err
	}

	outPath := filepath.Join(r.dir, "out.dat")
	if err := r.rate("sink.write_mb_s", bytes, true, func() error {
		os.Remove(outPath) // a new file, as every sort's output is
		return prewarm(r.dir, bytes)
	}, func() error {
		w, err := colsort.ToFile(outPath).Open(recSize)
		if err != nil {
			return err
		}
		for lo := 0; lo < recs.Len(); lo += chunk {
			if err := w.Write(recs.Sub(lo, min(lo+chunk, recs.Len()))); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}); err != nil {
		return err
	}
	recs, out, runs = record.Slice{}, record.Slice{}, nil

	// The real sort of the same input, for the coverage: one warm-up, then
	// the mean of two.
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: colsort.Config{
		Procs: procs, MemPerProc: r.sz.mem, RecordSize: recSize, Dir: r.dir}})
	if err != nil {
		return err
	}
	defer eng.Close()
	var whole timings
	for i := 0; i < 3; i++ {
		os.Remove(outPath)
		if err := prewarm(r.dir, 2*bytes); err != nil {
			return err
		}
		tm, err := r.stage("replay.sort", func() error {
			res, err := eng.Sort(r.ctx, colsort.FromFile(in), colsort.ToFile(outPath),
				colsort.WithAlgorithm(colsort.Threaded), colsort.WithMaxMemory(r.sz.hierCap))
			if err != nil {
				return err
			}
			return res.Close()
		})
		if err != nil {
			return err
		}
		if i > 0 {
			whole.add(tm)
		}
	}
	r.m.set("trace.coverage", unitX, float64(r.path)/float64(durQuantile(whole.quiet, 0.5)))
	os.Remove(in)
	os.Remove(outPath)
	return nil
}

// kway replays the merge at fixed fan-ins over in-memory runs: the loser
// tree alone, with no file under it.
func (r *replayer) kway() error {
	n := int(r.sz.kwayRecords)
	for _, k := range []int{16, 64} {
		recs, _ := fillInput(uniform(r.seed+2), int64(n))
		runs := make([]*merge.Run, 0, k)
		for i := 0; i < k; i++ {
			part := recs.Sub(i*n/k, (i+1)*n/k)
			sortalg.Sort(part)
			w := merge.NewWriter(pdm.NewMemDisk(), recSize, merge.DefaultChunkRecs)
			if err := w.Append(part); err != nil {
				return err
			}
			run, err := w.Finish()
			if err != nil {
				return err
			}
			runs = append(runs, run)
		}
		err := r.rate(fmt.Sprintf("merge.merge_k%d_mb_s", k), int64(n)*recSize, false, nil, func() error {
			_, _, err := merge.Merge(r.ctx, runs, func(record.Slice) error { return nil }, merge.Options{})
			return err
		})
		for _, run := range runs {
			run.Close()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// disks replays the pdm layer: the raw file disk (the I/O floor), the fsync a
// checkpointed run pays, the column store, and the overlap the async layer
// buys on disks with a modeled service time.
func (r *replayer) disks() error {
	const ioBytes = 512 << 10
	bytes := r.sz.hierRecords * recSize
	buf := make([]byte, ioBytes)
	// Every write repetition gets a new file, as every spill does.
	var d *pdm.FileDisk
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	if err := r.rate("pdm.filedisk_write_mb_s", bytes, false, func() (err error) {
		if d != nil {
			d.Close()
		}
		if d, err = pdm.NewFileDisk(filepath.Join(r.dir, "raw")); err != nil {
			return err
		}
		return prewarm(r.dir, bytes)
	}, func() error {
		for off := int64(0); off < bytes; off += ioBytes {
			if err := d.WriteAt(buf, off); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.rate("pdm.filedisk_read_mb_s", bytes, false, nil, func() error {
		for off := int64(0); off < bytes; off += ioBytes {
			if err := d.ReadAt(buf, off); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One run's worth of dirty pages per sync, as under WithCheckpoint.
	var syncs []float64
	for i := 0; i < 3; i++ {
		sd, err := pdm.NewFileDisk(filepath.Join(r.dir, "sync"))
		if err != nil {
			return err
		}
		for off := int64(0); off < r.sz.hierCap; off += ioBytes {
			if err := sd.WriteAt(buf, off); err != nil {
				sd.Close()
				return err
			}
		}
		tm, err := r.stage("pdm.sync_ms", func() error { return pdm.SyncDisk(sd) })
		sd.Close()
		if err != nil {
			return err
		}
		syncs = append(syncs, ms(tm.raw)) // a device wait, not machine speed
	}
	r.m.set("pdm.sync_ms", unitMs, median(syncs))

	rows, cols := r.sz.coreMem, int(r.sz.coreRecords)/r.sz.coreMem
	mach := pdm.Machine{P: procs, D: procs, Backend: pdm.FileBackend{Dir: r.dir}, Pools: record.NewPools(procs)}
	var st *pdm.Store
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	col := record.Make(rows, recSize)
	record.Fill(col, uniform(r.seed+3), 0)
	var cnt sim.Counters
	if err := r.rate("pdm.store_write_mb_s", r.sz.coreRecords*recSize, false, func() (err error) {
		if st != nil {
			st.Close()
		}
		if st, err = mach.NewStore(rows, cols, recSize, pdm.ColumnOwned); err != nil {
			return err
		}
		return prewarm(r.dir, r.sz.coreRecords*recSize)
	}, func() error {
		for j := 0; j < cols; j++ {
			if err := st.WriteColumn(&cnt, j%procs, j, col); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.rate("pdm.store_read_mb_s", r.sz.coreRecords*recSize, false, nil, func() error {
		for j := 0; j < cols; j++ {
			if err := st.ReadColumn(&cnt, j%procs, j, col); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// A scan that visits P modeled disks in turn, one extent each: the
	// synchronous scan pays every service time in sequence, the async one
	// keeps the next extent of every disk in flight.
	extents := int64(r.sz.scanExtents)
	delay := pdm.DelayConfig{Seek: 100 * time.Microsecond, BytesPerSec: 64 << 20}
	scan := func(async bool) (time.Duration, error) {
		var disks []pdm.Disk
		var hints []pdm.Prefetcher
		for i := 0; i < procs; i++ {
			mem := pdm.NewMemDisk()
			for e := int64(0); e < extents; e++ {
				if err := mem.WriteAt(buf, e*ioBytes); err != nil {
					return 0, err
				}
			}
			var disk pdm.Disk = pdm.NewDelayDisk(mem, delay)
			if async {
				a := pdm.NewAsyncDisk(disk, pdm.AsyncConfig{})
				hints = append(hints, a)
				disk = a
			}
			disks = append(disks, disk)
		}
		defer func() {
			for _, disk := range disks {
				disk.Close()
			}
		}()
		t0 := time.Now()
		for _, h := range hints {
			h.Prefetch(0, ioBytes)
		}
		for e := int64(0); e < extents; e++ {
			for i, disk := range disks {
				if err := disk.ReadAt(buf, e*ioBytes); err != nil {
					return 0, err
				}
				if async && e+1 < extents {
					hints[i].Prefetch((e+1)*ioBytes, ioBytes)
				}
			}
		}
		return time.Since(t0), nil
	}
	var plain, overlapped time.Duration
	if _, err := r.stage("pdm.async_overlap_x", func() (err error) {
		if plain, err = scan(false); err != nil {
			return err
		}
		overlapped, err = scan(true)
		return err
	}); err != nil {
		return err
	}
	r.m.set("pdm.async_overlap_x", unitX, float64(plain)/float64(overlapped))
	return nil
}

// kernels replays the local sort kernels on one column buffer.
func (r *replayer) kernels() error {
	const rounds = 8
	n := r.sz.mem
	src := record.Make(n, recSize)
	dst := record.Make(n, recSize)
	record.Fill(src, uniform(r.seed+4), 0)
	bytes := int64(rounds) * int64(n) * recSize
	var sc sortalg.Scratch
	if err := r.rate("sortalg.sort_mb_s", bytes, false, nil, func() error {
		for i := 0; i < rounds; i++ {
			sc.SortInto(dst, src)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.rate("sortalg.sort_radix_mb_s", bytes, false, nil, func() error {
		for i := 0; i < rounds; i++ {
			sc.SortIntoAlg(dst, src, sortalg.Radix)
		}
		return nil
	}); err != nil {
		return err
	}
	// The shape a pass's sort stage sees after a permute: s sorted chunks.
	const k = 16
	for i := 0; i < k; i++ {
		sortalg.Sort(src.Sub(i*n/k, (i+1)*n/k))
	}
	runs := sortalg.ContiguousRuns(n, k)
	return r.rate("sortalg.merge_runs_mb_s", bytes, false, nil, func() error {
		for i := 0; i < rounds; i++ {
			sc.MergeRunsInto(dst, src, runs)
		}
		return nil
	})
}

// fabric replays the cluster's all-to-all with column-sized payloads and the
// distributed in-core columnsort M-columnsort's sort stage uses.
func (r *replayer) fabric() error {
	const rounds = 16
	n := r.sz.mem
	var cnts [procs]sim.Counters
	if err := r.rate("cluster.alltoall_mb_s", int64(rounds)*procs*int64(n)*recSize, false, nil, func() error {
		return cluster.RunCtx(r.ctx, procs, func(pr *cluster.Proc) error {
			out := make([]record.Slice, procs)
			for q := range out {
				out[q] = record.Make(n/procs, recSize)
			}
			for i := 0; i < rounds; i++ {
				in, err := pr.AllToAll(&cnts[pr.Rank()], i, out)
				if err != nil {
					return err
				}
				copy(out, in) // received buffers are ours: send them on
				record.PutHeaders(in)
			}
			return nil
		})
	}); err != nil {
		return err
	}

	pools := record.NewPools(procs)
	var scratch [procs]sortalg.Scratch
	var locals [procs]record.Slice
	return r.rate("incore.sort_mb_s", procs*int64(n)*recSize, false, func() error {
		for q := range locals { // the sort consumes its input
			locals[q] = pools[q].Get(n, recSize)
			record.Fill(locals[q], uniform(r.seed+5), int64(q)*int64(n))
		}
		return nil
	}, func() error {
		return cluster.RunCtx(r.ctx, procs, func(pr *cluster.Proc) error {
			q := pr.Rank()
			out, err := incore.Columnsort{Pool: pools[q], Scratch: &scratch[q]}.Sort(pr, &cnts[q], 0, locals[q])
			pools[q].Put(out)
			return err
		})
	})
}

// corePasses replays whole pass programs on a pre-filled, file-backed store:
// the three algorithms, the pass skeleton with no sort and no communication,
// one fixed batch of run formation, and the verifier.
func (r *replayer) corePasses() error {
	mach := pdm.Machine{P: procs, D: procs, Backend: pdm.FileBackend{Dir: r.dir}, Pools: record.NewPools(procs)}
	run := func(name string, alg core.Algorithm, n int64, mem int) error {
		pl, err := core.NewPlan(alg, n, procs, procs, mem, recSize)
		if err != nil {
			return err
		}
		input, err := pl.NewInput(mach, uniform(r.seed+6))
		if err != nil {
			return err
		}
		defer input.Close()
		return r.rate(name, n*recSize, false, func() error {
			return prewarm(r.dir, 3*n*recSize) // two generations of pass stores and the output
		}, func() error {
			res, err := core.Run(r.ctx, pl, mach, input, core.Hooks{})
			if err != nil {
				return err
			}
			return res.Output.Close()
		})
	}
	for _, c := range []struct {
		name string
		alg  core.Algorithm
	}{
		{"core.run_threaded_mb_s", core.Threaded},
		{"core.run_subblock_mb_s", core.Subblock},
		{"core.run_mcolumn_mb_s", core.MColumn},
		{"core.run_io3_mb_s", core.BaselineIO3},
	} {
		if err := run(c.name, c.alg, r.sz.coreRecords, r.sz.coreMem); err != nil {
			return err
		}
	}

	// One fixed batch of the hierarchical sort's size on a warm fabric: the
	// unit of work directly comparable with runform.form_mb_s.
	batch := r.sz.hierCap / recSize
	pl, err := core.NewPlan(core.Threaded, batch, procs, procs, r.sz.mem, recSize)
	if err != nil {
		return err
	}
	br, err := core.NewBatchRunner(r.ctx, pl, mach)
	if err != nil {
		return err
	}
	defer br.Close()
	input, err := pl.NewInput(mach, uniform(r.seed+7))
	if err != nil {
		return err
	}
	defer input.Close()
	once := func() error {
		res, err := br.Run(input, core.Hooks{})
		if err != nil {
			return err
		}
		return res.Output.Close()
	}
	if err := once(); err != nil { // warm the fabric's pools
		return err
	}
	if err := r.rate("core.batch_mb_s", batch*recSize, false, nil, once); err != nil {
		return err
	}

	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: colsort.Config{
		Procs: procs, MemPerProc: r.sz.coreMem, RecordSize: recSize, Dir: r.dir}})
	if err != nil {
		return err
	}
	defer eng.Close()
	res, err := eng.Sort(r.ctx, colsort.Generate(uniform(r.seed+8), r.sz.coreRecords), nil,
		colsort.WithAlgorithm(colsort.Threaded), colsort.WithPadding(colsort.PadNever))
	if err != nil {
		return err
	}
	defer res.Close()
	return r.rate("verify.check_mb_s", r.sz.coreRecords*recSize, false, nil, res.Verify)
}

// service replays the server layer and the engine under two jobs: one client
// for the anatomy of a request (first body byte, egress, HTTP framing against
// a direct Engine.Sort of the same bodies), the closed loop for the tail and
// the refusals, and two concurrent direct sorts against one.
func (r *replayer) service(t *tally) error {
	const requests = 6
	s, err := startServer(r.sz, r.seed)
	if err != nil {
		return err
	}
	defer s.close()
	warm := s.segment(r.ctx, r.sz.warmSeconds)
	t.merge(warm.tally)

	direct := func(i int) error {
		res, err := s.eng.Sort(r.ctx, colsort.FromBytes(s.payloads[i%len(s.payloads)]), colsort.ToWriter(io.Discard))
		if err != nil {
			return err
		}
		return res.Close()
	}
	var wire, first, egress, bare timings
	for i := 0; i < requests; i++ {
		var total, head time.Duration
		tm, err := r.stage("server.request", func() (err error) {
			total, head, err = s.request(r.ctx, i%len(s.payloads), s.replies[0])
			return err
		})
		t.add(err)
		if err != nil {
			return err
		}
		scale := float64(tm.quiet) / float64(tm.raw)
		scaled := func(d time.Duration) timing {
			return timing{raw: d, quiet: time.Duration(float64(d) * scale)}
		}
		wire.add(scaled(total))
		first.add(scaled(head))
		egress.add(scaled(total - head))
		tm, err = r.stage("engine.sort", func() error { return direct(i) })
		if err != nil {
			return err
		}
		bare.add(tm)
	}
	wireP50, bareP50 := durQuantile(wire.quiet, 0.5), durQuantile(bare.quiet, 0.5)
	r.m.set("server.first_body_byte_ms_p50", unitMs, ms(durQuantile(first.quiet, 0.5)))
	r.m.set("server.egress_ms_p50", unitMs, ms(durQuantile(egress.quiet, 0.5)))
	r.m.set("server.framing_overhead_pct", unitPct, 100*float64(wireP50-bareP50)/float64(bareP50))

	start := time.Now()
	loop := s.loop(r.ctx, r.sz, r.sz.minRequests/4, r.sz.segmentSeconds)
	r.tr.add("server.loop", "replay", start, time.Now())
	t.merge(loop.tally)
	if len(loop.lat) == 0 {
		return fmt.Errorf("replay server.loop: no request succeeded: %w", loop.firstErr)
	}
	r.m.set("server.req_p90_ms", unitMs, ms(durQuantile(loop.lat, 0.9)))
	r.m.set("server.req_p95_ms", unitMs, ms(durQuantile(loop.lat, 0.95)))
	r.m.set("server.busy_share", unitShare, float64(loop.busy)/float64(loop.attempted))

	// The same number of direct sorts per goroutine, on one and on two.
	concurrent := func(g int) (timing, error) {
		return r.stage(fmt.Sprintf("engine.concurrent%d", g), func() error {
			errs := make([]error, g)
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < requests/2 && errs[w] == nil; i++ {
						errs[w] = direct(w*payloadsPerClient + i)
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	one, err := concurrent(1)
	if err != nil {
		return err
	}
	two, err := concurrent(2)
	if err != nil {
		return err
	}
	r.m.set("engine.concurrent2_scaling_x", unitX, 2*float64(one.quiet)/float64(two.quiet))
	return nil
}
