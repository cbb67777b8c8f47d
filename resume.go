package colsort

// Crash recovery: Engine.Resume picks a checkpointed hierarchical sort back
// up from its persisted run manifest (see manifest.go and DESIGN.md §13).
// The durable spilled runs are reopened and verified structurally — record
// counts, CRC sidecars, frame geometry all come from the manifest — and the
// sort continues from the last durability point instead of starting over:
// a crash during the merge phase re-merges without re-sorting a single
// record; a crash during run formation restarts formation (the former's
// resident records died with the process — its runs do not cover a
// contiguous source prefix, so there is no point to skip to).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

// resumeState is what the replay of a manifest whose formation completed
// hands sortHierarchical: the reopened live runs under their manifest ids.
type resumeState struct {
	live  []hierRun
	want  record.Checksum // the full ingest checksum
	maxID int             // highest manifest id issued; seeds the resumed WAL's sequence
}

// Resume continues a checkpointed sort from the manifest at manifestDir —
// the directory a crashed (or cancelled) WithCheckpoint job left behind.
// The durable runs recorded there are adopted without re-sorting; the output
// streamed into dst is byte-identical to what the uninterrupted sort would
// have produced.
//
// src must be the SAME input the original job was reading. It may be nil
// only when the crash hit the merge phase (the manifest records ingest as
// complete): then no source record is read at all. A crash during run
// formation restarts formation from the beginning (still under the same
// checkpoint, so the restarted job is itself resumable).
//
// The job's parameters — algorithm, hybrid group size, key spec, fan-in,
// memory cap — come from the manifest, not from opts: they are part of the durable
// state, and changing them mid-job cannot produce the original job's output.
// Options that do not shape the data (WithProgress, WithRetry, WithDeadline,
// WithNoWait, machine overrides) apply normally. The engine must be
// configured with the same record size the manifest records.
//
// Resume is itself a job: it is admitted against the engine's budget, runs
// under ctx (and any WithDeadline), and reports through Result exactly as
// Sort does, with Result.Merge.ResumedRuns counting the adopted runs. A
// manifest whose job already completed is refused.
func (e *Engine) Resume(ctx context.Context, manifestDir string, src Source, dst Sink, opts ...Option) (*Result, error) {
	o := newSortOptions(opts)
	if dst == nil {
		return nil, fmt.Errorf("%w: a resumed hierarchical sort streams its output", ErrSinkRequired)
	}
	st, err := readManifest(manifestDir)
	if err != nil {
		return nil, err
	}
	if st.done {
		return nil, fmt.Errorf("colsort: the job at %s already completed; nothing to resume", manifestDir)
	}

	// The manifest's begin entry is authoritative for everything that shapes
	// the data. Caller options for those knobs are overridden, not rejected:
	// front ends (the server's boot re-adoption) pass their defaults.
	o.checkpoint = manifestDir
	o.alg, o.group = Algorithm(st.begin.Alg), st.begin.Group
	o.padding = PadAuto
	o.fanIn = st.begin.FanIn
	o.maxMemory = st.begin.MaxMemory
	if st.begin.KeySpec != nil {
		o.keySpec = *st.begin.KeySpec
	} else {
		o.keySpec = KeySpec{}
	}
	if st.begin.RecordSize != e.cfg.RecordSize {
		return nil, fmt.Errorf("colsort: manifest at %s was written for %d-byte records but the engine is configured for %d-byte records", manifestDir, st.begin.RecordSize, e.cfg.RecordSize)
	}
	n := st.begin.N
	if n < 1 {
		return nil, fmt.Errorf("colsort: manifest at %s records no input size", manifestDir)
	}
	// The runs on disk were formed over the capacity the original job
	// resolved; this engine must resolve the same job the same way.
	sp, codec, err := e.resolve(o, n)
	if err != nil {
		return nil, err
	}
	if sp.MaxRuns == 0 || sp.N != st.begin.RunRecords {
		return nil, fmt.Errorf("colsort: manifest at %s was written with %d-record runs but this engine plans %d-record runs; resume on an identically configured engine", manifestDir, st.begin.RunRecords, sp.N)
	}

	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}

	// A crash during formation is not skippable (see the Resume doc
	// comment): discard the partial state and restart formation from record
	// zero, still checkpointed.
	if !st.ingestDone {
		st.live = nil
	}

	// Sweep the orphans first: the half-written spill the crash interrupted,
	// and consumed merge inputs whose removal did not complete.
	sweepOrphanRuns(manifestDir, st.live)
	if !st.ingestDone {
		_ = os.Remove(filepath.Join(manifestDir, manifestName))
	}

	// The source is required whenever formation work remains.
	var rd RecordReader
	if src != nil {
		srcN, r, err := src.Open(e.cfg.RecordSize)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		if srcN != n {
			return nil, fmt.Errorf("colsort: the source holds %d records but the manifest at %s recorded %d; resuming requires the original input", srcN, manifestDir, n)
		}
		rd = r
	} else if !st.ingestDone {
		return nil, fmt.Errorf("colsort: the manifest at %s has unfinished run formation; Resume needs the original Source to form the remaining runs", manifestDir)
	}

	return e.runJob(ctx, o, sp.N*int64(sp.Z), func(j *job) (*Result, error) {
		var rs *resumeState
		if st.ingestDone {
			live, err := reopenRuns(j.m, st.live, e.cfg.RecordSize)
			if err != nil {
				return nil, err
			}
			rs = &resumeState{live: live, want: st.want, maxID: st.maxID}
		}
		return j.newHierJob(o, codec, n, sp.Plan).sortHierarchical(ctx, rd, dst, rs)
	})
}

// reopenRuns reopens the manifest's live runs as merge inputs: each durable
// spill file, wrapped with the machine's fault and async layers exactly as a
// freshly spilled run would be, carrying the record count, direction, frame
// geometry and CRC sidecar the manifest recorded; a geometry no writer
// produces is refused. On any failure the runs already opened are closed
// (keep-on-close: their files stay).
func reopenRuns(m pdm.Machine, live []*manifestRun, recSize int) (runs []hierRun, err error) {
	defer func() {
		if err != nil {
			for _, r := range runs {
				r.run.Close()
			}
		}
	}()
	for idx, mr := range live {
		fi, statErr := os.Stat(mr.Path)
		if statErr != nil {
			return runs, fmt.Errorf("colsort: resume: durable run %d is missing: %w", mr.ID, statErr)
		}
		// The CRC sidecar travels in the manifest, not the file: the spill
		// holds records only.
		if want := mr.Records * int64(recSize); fi.Size() < want {
			return runs, fmt.Errorf("colsort: resume: durable run %d holds %d bytes but the manifest recorded at least %d; the checkpoint directory is damaged", mr.ID, fi.Size(), want)
		}
		d, openErr := pdm.OpenFileDisk(mr.Path)
		if openErr != nil {
			return runs, fmt.Errorf("colsort: resume: reopening run %d: %w", mr.ID, openErr)
		}
		wd := m.WrapSpillDisk(d, idx)
		run, reopenErr := merge.Reopen(wd, recSize, mr.Records, mr.Descending, mr.FrameBytes, mr.CRCs)
		if reopenErr != nil {
			wd.Close()
			return runs, fmt.Errorf("colsort: resume: durable run %d: %w; the checkpoint directory is damaged", mr.ID, reopenErr)
		}
		runs = append(runs, hierRun{run: run, id: mr.ID})
	}
	return runs, nil
}
