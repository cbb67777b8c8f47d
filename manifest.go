package colsort

// The run manifest: the write-ahead log that makes a checkpointed
// hierarchical sort crash-safe. It is a JSON-lines file (manifest.wal) in
// the job's checkpoint directory, appended and fsync'd at each durability
// point:
//
//	begin        the resolved job parameters (n, record size, run capacity,
//	             fan-in, formation, key spec, caps) — written once, first
//	run          one verified spilled run: its file path, record count,
//	             direction and CRC32C sidecar — appended only AFTER the
//	             run's bytes are fsync'd
//	ingest_done  run formation complete; carries the full ingest multiset
//	             checksum the final merge must reproduce
//	merged       one intermediate merge: the output run (same fields as
//	             "run") and the ids of the inputs it consumed — appended
//	             after the output is fsync'd and BEFORE the input files are
//	             retired, so a crash between the two only leaves orphans
//	done         the sort completed and the sink holds the verified output;
//	             the final merge's inputs are retired after it
//
// Replay (readManifest) folds the log into the live run set: every "run"
// and "merged" output not consumed by a later "merged" entry. The log
// mechanics — fsync'd appends, the torn final line a crash mid-append leaves
// (ignored on replay, truncated on reopen: the entry's durability point was
// not reached, so whatever it described is redone or swept as an orphan) —
// live in internal/wal. See DESIGN.md §13 for the full durability contract.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/wal"
)

// manifestName is the WAL's file name inside the checkpoint directory.
const manifestName = "manifest.wal"

// ckptRunPrefix leads every spill file a checkpointed job creates in its
// checkpoint directory, so cleanup and orphan GC can identify the job's
// files without touching anything else living there.
const ckptRunPrefix = "ckpt-"

// manifestRun describes one durable spilled run.
type manifestRun struct {
	ID         int      `json:"id"`
	Path       string   `json:"path"`
	Records    int64    `json:"records"`
	Descending bool     `json:"descending,omitempty"`
	FrameBytes int      `json:"frame_bytes"`
	CRCs       []uint32 `json:"crcs"`
}

// manifestEntry is one WAL line; Type selects which fields are meaningful.
type manifestEntry struct {
	Type string `json:"type"`

	// begin
	N          int64    `json:"n,omitempty"`
	RecordSize int      `json:"record_size,omitempty"`
	RunRecords int64    `json:"run_records,omitempty"`
	FanIn      int      `json:"fan_in,omitempty"`
	Formation  string   `json:"formation,omitempty"`
	Alg        int      `json:"alg,omitempty"`
	AlgName    string   `json:"alg_name,omitempty"` // display only; Alg is parsed
	Group      int      `json:"group,omitempty"`    // the hybrid's group size
	KeySpec    *KeySpec `json:"key_spec,omitempty"`
	MaxMemory  int64    `json:"max_memory,omitempty"`

	// run and merged
	Run *manifestRun `json:"run,omitempty"`
	// ingest_done: the ingest multiset checksum.
	Want *record.Checksum `json:"want,omitempty"`
	// merged: ids of the input runs the output consumed.
	Inputs []int `json:"inputs,omitempty"`
}

// manifestLog is the append side of the WAL. A nil *manifestLog appends and
// closes as a no-op, so a job that is not checkpointed logs its phase
// boundaries unconditionally; logRun, logMerged, logDone and remove — which
// issue ids, retire runs and touch the directory — sit behind the caller's
// "checkpointing?" guard together with the fsyncs they follow.
type manifestLog struct {
	dir    string
	w      *wal.Log
	runSeq int
}

// openManifestLog opens (creating the directory if needed) the WAL for
// appending. firstID seeds the run-id sequence — a resumed job continues
// numbering after the ids already in the log.
func openManifestLog(dir string, firstID int) (*manifestLog, error) {
	w, err := wal.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("colsort: checkpoint manifest: %w", err)
	}
	return &manifestLog{dir: dir, w: w, runSeq: firstID}, nil
}

// append makes one entry durable (wal.Log.Append: one line, one fsync).
func (l *manifestLog) append(e manifestEntry) error {
	if l == nil {
		return nil
	}
	if err := l.w.Append(e); err != nil {
		return fmt.Errorf("colsort: checkpoint manifest: %w", err)
	}
	return nil
}

// begin is the begin entry this job writes — and, under WithCheckpoint,
// compares with the one a manifest already in its directory holds (resume).
func (h *hierJob) begin() manifestEntry {
	e := manifestEntry{
		Type:       "begin",
		N:          h.n,
		RecordSize: h.e.cfg.RecordSize,
		RunRecords: int64(h.runRecs),
		FanIn:      h.fanIn,
		Formation:  formationName,
		Alg:        int(h.o.alg),
		AlgName:    h.o.alg.String(),
		Group:      h.o.group,
		MaxMemory:  h.o.maxMemory,
	}
	if h.o.keySpec != (KeySpec{}) {
		e.KeySpec = &h.o.keySpec
	}
	return e
}

// params renders a begin entry's job parameters: everything that shapes the
// job's runs, so two begin entries describe the same job exactly when their
// params are equal. formation and alg_name are left out: they only name
// things.
func (e manifestEntry) params() string {
	var ks KeySpec
	if e.KeySpec != nil {
		ks = *e.KeySpec
	}
	return fmt.Sprintf("n=%d record_size=%d run_records=%d alg=%v group=%d fan_in=%d key_spec=%+v max_memory=%d",
		e.N, e.RecordSize, e.RunRecords, Algorithm(e.Alg), e.Group, e.FanIn, ks, e.MaxMemory)
}

// describeRun captures a spilled run's durable identity. The run's disk
// must already be fsync'd (pdm.SyncDisk) — the manifest claims durability,
// it does not create it.
func describeRun(id int, r *merge.Run) *manifestRun {
	return &manifestRun{
		ID:         id,
		Path:       pdm.DiskPath(r.Disk),
		Records:    r.Records,
		Descending: r.Descending,
		FrameBytes: r.FrameBytes,
		CRCs:       r.CRCs(),
	}
}

// logRun records one verified formation run, returning its manifest id.
func (l *manifestLog) logRun(r *merge.Run) (int, error) {
	l.runSeq++
	id := l.runSeq
	return id, l.append(manifestEntry{Type: "run", Run: describeRun(id, r)})
}

// logIngestDone marks run formation complete with the full ingest checksum.
func (l *manifestLog) logIngestDone(want record.Checksum) error {
	return l.append(manifestEntry{Type: "ingest_done", Want: &want})
}

// logMerged records one intermediate merge output and the input ids it
// consumed, returning the output's manifest id. Call it after the output
// is fsync'd and before the inputs are retired.
func (l *manifestLog) logMerged(out *merge.Run, inputs []int) (int, error) {
	l.runSeq++
	id := l.runSeq
	return id, l.append(manifestEntry{Type: "merged", Run: describeRun(id, out), Inputs: inputs})
}

// logDone records that the sort completed: the sink holds the verified
// output, so no run is needed any more once the entry is durable.
func (l *manifestLog) logDone() error {
	return l.append(manifestEntry{Type: "done"})
}

// remove closes the WAL and best-effort removes the checkpoint directory's
// contents once the sort succeeded — the checkpoint state has served its
// purpose: every run file the done entry left behind (the files of failed
// spill attempts, the final merge's inputs when that entry could not be
// written), the manifest, then the directory. Cleanup failures are
// swallowed: the output is already delivered, and the next Sort under the
// same directory sweeps a leftover manifest recording "done".
func (l *manifestLog) remove() {
	l.close()
	sweepOrphanRuns(l.dir, nil) // no run is live any more: every spill file goes
	_ = os.Remove(filepath.Join(l.dir, manifestName))
	_ = os.Remove(l.dir) // only if nothing else lives there
}

// close releases the WAL file handle without cleanup — the failure path,
// which must leave every durable byte in place for the Sort that continues
// the job.
func (l *manifestLog) close() {
	if l == nil {
		return
	}
	_ = l.w.Close()
}

// manifestState is the fold of one WAL replay.
type manifestState struct {
	begin      manifestEntry
	live       []*manifestRun  // runs not consumed by a later merged entry, log order
	want       record.Checksum // the full ingest checksum, meaningful once ingestDone
	ingestDone bool
	done       bool
	maxID      int
}

// readManifest replays the WAL at dir. A torn final line is ignored, and a
// log with no complete line holds no job: the state is nil. Any complete
// line that does not decode or fold fails the replay with wal.ErrCorrupt
// (the file is damaged, not merely truncated by a crash).
func readManifest(dir string) (*manifestState, error) {
	st := &manifestState{}
	liveByID := make(map[int]*manifestRun)
	order := []int{}
	haveBegin, lines := false, 0
	err := wal.Replay(filepath.Join(dir, manifestName), func(line []byte) error {
		lines++
		var e manifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.Want != nil {
			st.want = *e.Want // ingest_done's is the last one a log carries
		}
		switch e.Type {
		case "begin":
			if haveBegin {
				return fmt.Errorf("duplicate begin entry")
			}
			if e.Formation != formationName {
				return fmt.Errorf("unknown formation %q", e.Formation)
			}
			st.begin, haveBegin = e, true
		case "run", "merged":
			if e.Run == nil {
				return fmt.Errorf("%s entry without run", e.Type)
			}
			for _, id := range e.Inputs { // merged only
				delete(liveByID, id)
			}
			liveByID[e.Run.ID] = e.Run
			order = append(order, e.Run.ID)
			if e.Run.ID > st.maxID {
				st.maxID = e.Run.ID
			}
		case "ingest_done":
			st.ingestDone = true
		case "done":
			st.done = true
		default:
			return fmt.Errorf("unknown entry type %q", e.Type)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("colsort: no resumable manifest at %s: %w", dir, err)
	}
	if lines == 0 {
		return nil, nil
	}
	if !haveBegin {
		return nil, fmt.Errorf("colsort: manifest at %s has no begin entry; nothing to resume", dir)
	}
	for _, id := range order {
		if r, ok := liveByID[id]; ok {
			st.live = append(st.live, r)
			delete(liveByID, id) // a merged output re-listing an id keeps one copy
		}
	}
	return st, nil
}

// sweepOrphanRuns removes every checkpoint spill file in dir that no live
// manifest run references — the half-written run or merge output a crash
// left behind, and the consumed inputs whose removal the crash interrupted.
func sweepOrphanRuns(dir string, live []*manifestRun) {
	referenced := make(map[string]bool, len(live))
	for _, r := range live {
		referenced[filepath.Base(r.Path)] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if !de.IsDir() && strings.HasPrefix(name, ckptRunPrefix) && !referenced[name] {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}
