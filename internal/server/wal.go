package server

// Server-side job durability. File jobs (POST /v1/jobs) write their state
// transitions through a JSON-lines WAL at DataDir/.colsort/jobs.wal —
// queued (with the submitted paths and wire options), running, done/failed
// — each line fsync'd before the transition is acted on. The log mechanics
// (append+fsync, torn-tail replay and repair, compaction by rename) are
// internal/wal's; this file holds the record type, its fold and recovery.
//
// On startup the server replays the WAL: jobs that were queued or running
// when the process died are RE-ADOPTED — restarted under their original ids
// as the same checkpointed Sort, which continues from the job's checkpoint
// manifest when one survived (so completed run formation and merge work is
// not redone) — and the WAL is compacted down to the re-adopted entries.
// Terminal entries are dropped: the registry's retained tail is an
// in-memory convenience, not durable state.
//
// Streaming jobs (POST /v1/sort) are deliberately absent: their output is
// the response body of a connection that died with the process — there is
// nothing to resume for a client that is gone.
//
// Startup also sweeps the engine's scratch directory for orphaned
// job-scoped files (the jobNNNNN- namespace pdm.JobScratchPrefix assigns)
// and pooled scratch files (pdm.FilePool's pool-gNNNNN.dat): a SIGKILL
// leaves the dead process's spill, store and pool files behind, and no
// future job will ever reference them. The sweep runs before any job is
// admitted, so every such file it sees is garbage by construction.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"colsort/internal/optspell"
	"colsort/internal/wal"
)

// serverStateDir is the DataDir subdirectory holding the server's durable
// state: the jobs WAL and the per-job checkpoint directories.
const serverStateDir = ".colsort"

// jobsWALName is the job-state WAL's file name inside serverStateDir.
const jobsWALName = "jobs.wal"

// walRecord is one jobs.wal line: a state transition of one file job. The
// queued record carries everything needed to restart the job; later
// records for the same id carry only the transition.
type walRecord struct {
	ID      string            `json:"id"`
	State   string            `json:"state"`
	Input   string            `json:"input,omitempty"`
	Output  string            `json:"output,omitempty"`
	Options map[string]string `json:"options,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// jobsWALPath is where the job-state WAL of a server rooted at dataDir lives.
func jobsWALPath(dataDir string) string {
	return filepath.Join(dataDir, serverStateDir, jobsWALName)
}

// foldJobsWAL folds the WAL into the last observed state of every job, in
// first-seen order (internal/wal skips a torn final line: the transition it
// recorded never took effect). A WAL that does not exist yet folds to
// nothing.
func foldJobsWAL(path string) ([]walRecord, error) {
	byID := make(map[string]*walRecord)
	var order []string
	err := wal.Replay(path, func(line []byte) error {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		prev, ok := byID[rec.ID]
		if !ok {
			byID[rec.ID] = &rec
			order = append(order, rec.ID)
			return nil
		}
		// Later transitions update state but keep the queued record's
		// restart parameters.
		prev.State = rec.State
		if rec.Error != "" {
			prev.Error = rec.Error
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("jobs wal: %w", err)
	}
	out := make([]walRecord, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, nil
}

// jobIDNum extracts the numeric part of a j%06d job id; 0 if malformed.
func jobIDNum(id string) int64 {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ckptDir returns the checkpoint directory of one file job.
func (s *Server) ckptDir(id string) string {
	return filepath.Join(s.cfg.DataDir, serverStateDir, "ckpt", id)
}

// orphanScratchPat matches the per-job scratch namespace prefix
// (pdm.JobScratchPrefix's job%05d- rendering) at the start of a file name,
// and the name of a pooled scratch file (pdm.FilePool's pool-g%05d.dat).
var orphanScratchPat = regexp.MustCompile(`^job\d+-|^pool-g\d+\.dat$`)

// sweepOrphanScratch removes job-namespaced and pooled files from the
// engine's scratch directory. It must run before any job is admitted: at
// that point every such file belongs to a dead process.
func sweepOrphanScratch(scratchDir string) int {
	if scratchDir == "" {
		return 0
	}
	ents, err := os.ReadDir(scratchDir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, de := range ents {
		if de.IsDir() || !orphanScratchPat.MatchString(de.Name()) {
			continue
		}
		if os.Remove(filepath.Join(scratchDir, de.Name())) == nil {
			removed++
		}
	}
	return removed
}

// recover replays the jobs WAL, sweeps orphan scratch, and re-adopts every
// job the crash interrupted. Called from New before the server accepts
// requests; errors are reported to the caller (the server still serves —
// durability degrades, availability does not).
func (s *Server) recover() error {
	cleaned := sweepOrphanScratch(s.eng.Config().Dir)
	s.orphansCleaned.Add(int64(cleaned))
	if s.cfg.DataDir == "" {
		return nil
	}
	path := jobsWALPath(s.cfg.DataDir)
	records, err := foldJobsWAL(path)
	if err != nil {
		return err
	}
	var pending []walRecord
	var maxSeq int64
	for _, rec := range records {
		if n := jobIDNum(rec.ID); n > maxSeq {
			maxSeq = n
		}
		if rec.State == jobQueued || rec.State == jobRunning {
			pending = append(pending, rec)
		}
	}
	s.jobs.seedSeq(maxSeq)
	if err := wal.Rewrite(path, pending); err != nil {
		return fmt.Errorf("jobs wal: %w", err)
	}
	if s.wal, err = wal.Open(path); err != nil {
		return fmt.Errorf("jobs wal: %w", err)
	}

	for _, rec := range pending {
		if err := s.readoptJob(rec); err != nil {
			// The job cannot be restarted (bad persisted options, input
			// gone): record the failure durably so it is not retried on the
			// next boot, and surface it through the registry.
			entry := s.jobs.addWithID(rec.ID, jobInfo{Input: rec.Input, Output: rec.Output}, func() {})
			entry.finish(nil, err)
			s.wal.Append(walRecord{ID: rec.ID, State: jobFailed, Error: err.Error()}) //nolint:errcheck // best effort
		}
	}
	return nil
}

// readoptJob restarts one interrupted file job under its original id, as
// the checkpointed Sort it was: the library continues from whatever the
// job's checkpoint directory holds.
func (s *Server) readoptJob(rec walRecord) error {
	in, err := s.resolveDataPath(rec.Input)
	if err != nil {
		return fmt.Errorf("readopt %s: input: %w", rec.ID, err)
	}
	out, err := s.resolveDataPath(rec.Output)
	if err != nil {
		return fmt.Errorf("readopt %s: output: %w", rec.ID, err)
	}
	if _, err := os.Stat(in); err != nil {
		return fmt.Errorf("readopt %s: input: %w", rec.ID, err)
	}
	// Older builds accepted and persisted options this one no longer has:
	// "run-formation", "fabric", "async", "chaos" (chaos=off, a no-op on a
	// server, whose engine never injected chaos) and the chaos-* keys of
	// seeded fault injection, which is test-only, and "retries" and
	// "retry-base-us", the knobs of a retry policy that is now fixed. None
	// ever changed a job's output bytes, so a job an older binary queued is
	// re-adopted without them rather than failed as an unknown option.
	for k := range rec.Options {
		if k == "run-formation" || k == "fabric" || k == "async" || k == "chaos" ||
			k == "retries" || k == "retry-base-us" || strings.HasPrefix(k, "chaos-") {
			delete(rec.Options, k)
		}
	}
	opts, err := optspell.Parse(valuesFromMap(rec.Options))
	if err != nil {
		return fmt.Errorf("readopt %s: %w", rec.ID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	entry := s.jobs.addWithID(rec.ID, jobInfo{Input: rec.Input, Output: rec.Output}, cancel)
	s.resumedJobs.Add(1)
	s.launchFileJob(ctx, cancel, entry, in, out, opts, func() {})
	return nil
}
