package colsort

// Crash recovery: a hierarchical Sort under WithCheckpoint(dir) continues
// whatever job dir holds (see manifest.go and DESIGN.md §13). Before any run
// is formed it replays dir's manifest: a job with the same parameters whose
// formation completed is picked back up from its durable spilled runs —
// reopened and verified structurally, record counts, CRC sidecars and frame
// geometry all coming from the manifest — so a crash during the merge phase
// re-merges without re-sorting a single record; a crash during run formation
// restarts formation (the former's resident records died with the process —
// its runs do not cover a contiguous source prefix, so there is no point to
// skip to).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"colsort/internal/merge"
	"colsort/internal/pdm"
)

// resume opens the job's manifest WAL under WithCheckpoint after deciding,
// from what dir already holds, whether this job starts fresh or continues:
//
//   - no manifest: a fresh job;
//   - a manifest with no complete line (the crash tore its begin entry), or
//     whose job completed (its cleanup failed): swept, a fresh job;
//   - a manifest begun with other parameters: refused, no file touched;
//   - the same job with formation complete: its live runs are adopted
//     (reopenRuns) and formation is skipped — the source is never read;
//   - the same job mid-formation: its run files and manifest are swept and
//     the job re-begins;
//   - a manifest that does not replay, or a damaged run: refused.
func (h *hierJob) resume() error {
	dir := h.o.checkpoint
	begin := h.begin()
	firstID := 0
	st, err := readManifest(dir)
	job := err == nil && st != nil && !st.done // a job to continue
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	case job && st.begin.params() != begin.params():
		return fmt.Errorf("colsort: the checkpoint at %s holds another job (%s); this Sort would begin (%s): repeat the crashed call's options, or checkpoint under another directory",
			dir, st.begin.params(), begin.params())
	case job && st.ingestDone:
		// Sweep the orphans first: the half-written spill the crash
		// interrupted, and consumed merge inputs whose removal did not
		// complete.
		sweepOrphanRuns(dir, st.live)
		live, err := reopenRuns(h.m, st.live, h.e.cfg.RecordSize)
		if err != nil {
			return err
		}
		h.live, h.want, h.resumed = live, st.want, true
		h.spillSeq = len(live) // reopenRuns wrapped them as ordinals 0..len-1
		h.stats.ResumedRuns = len(live)
		firstID = st.maxID
	default:
		sweepOrphanRuns(dir, nil)
		_ = os.Remove(filepath.Join(dir, manifestName))
	}
	ckpt, err := openManifestLog(dir, firstID)
	if err != nil {
		return err
	}
	h.ckpt = ckpt
	if h.resumed {
		return nil
	}
	return ckpt.append(begin)
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
