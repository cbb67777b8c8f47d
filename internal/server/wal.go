package server

// Server-side job durability (DESIGN.md §13, "A file job is its
// directory"). A file job (POST /v1/jobs) is durable as one directory,
// DataDir/.colsort/ckpt/<id>/. Before the submit handler answers 202 it
// writes the submitted request to the directory's job.json through
// wal.Rewrite (a temp file, fsync'd, renamed into place), and the job runs
// as a Sort checkpointed in the same directory, whose manifest records how
// far it got. A done or failed job's directory is removed; a job a drain
// cancelled keeps it.
//
// On startup the server lists ckpt/ and RE-ADOPTS, in id order, every
// directory that holds a job file: the job restarts under its original id
// as the same checkpointed Sort, which continues from the job's manifest
// when one survived (so completed run formation and merge work is not
// redone). A directory without a job file is removed: its submit never
// became durable and was never answered 202. A directory whose removal
// failed is re-adopted at the next boot and runs once more, to the same
// output.
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
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"colsort/internal/optspell"
	"colsort/internal/wal"
)

// serverStateDir is the DataDir subdirectory holding the server's durable
// state: one directory per file job, under ckpt/.
const serverStateDir = ".colsort"

// jobFileName is the name of a job's durable request inside its directory.
const jobFileName = "job.json"

// readJobFile decodes the job file at path, which holds exactly one record:
// anything else — a record that does not decode, none, or more than one —
// is wal.ErrCorrupt naming the file. A missing file is the os error.
func readJobFile(path string) (jobRequest, error) {
	var req jobRequest
	n := 0
	err := wal.Replay(path, func(line []byte) error {
		n++
		return json.Unmarshal(line, &req)
	})
	if err == nil && n != 1 {
		err = fmt.Errorf("%w: %s holds %d records, want 1", wal.ErrCorrupt, path, n)
	}
	return req, err
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

// recover sweeps orphan scratch and re-adopts every file job whose
// directory survived. Called from New before the server accepts requests.
// Every job file is read before anything is touched: an older build's job
// log, an unreadable ckpt/ or a damaged job file fails New with the files
// as they were.
func (s *Server) recover() error {
	type bootJob struct {
		id  string
		req jobRequest
	}
	var jobs []bootJob
	var unsubmitted []string
	if s.cfg.DataDir != "" {
		state := filepath.Join(s.cfg.DataDir, serverStateDir)
		old := filepath.Join(state, "jobs.wal")
		if _, err := os.Lstat(old); err == nil {
			return fmt.Errorf("server: %s is the job log of an older build, which this one does not read: finish those jobs with commit 83a821b, the last build that reads it, or remove the file", old)
		}
		ents, err := os.ReadDir(filepath.Join(state, "ckpt"))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("server: %w", err)
		}
		for _, de := range ents {
			if !de.IsDir() {
				continue
			}
			s.jobs.seedSeq(jobIDNum(de.Name()))
			req, err := readJobFile(filepath.Join(s.ckptDir(de.Name()), jobFileName))
			switch {
			case errors.Is(err, fs.ErrNotExist):
				unsubmitted = append(unsubmitted, de.Name())
			case err != nil:
				return fmt.Errorf("server: %w", err)
			default:
				jobs = append(jobs, bootJob{de.Name(), req})
			}
		}
	}

	cleaned := sweepOrphanScratch(s.eng.Config().Dir)
	s.orphansCleaned.Add(int64(cleaned))
	for _, id := range unsubmitted {
		os.RemoveAll(s.ckptDir(id)) //nolint:errcheck // left behind, it is removed at the next boot
	}
	slices.SortStableFunc(jobs, func(a, b bootJob) int { return cmp.Compare(jobIDNum(a.id), jobIDNum(b.id)) })
	for _, j := range jobs {
		if err := s.readoptJob(j.id, j.req); err != nil {
			// The job cannot be restarted (bad persisted options, input
			// gone): it fails, and its directory goes with it, so the next
			// boot does not retry it.
			entry := s.jobs.add(j.id, jobInfo{Input: j.req.Input, Output: j.req.Output}, func() {})
			os.RemoveAll(s.ckptDir(j.id)) //nolint:errcheck // left behind, the next boot fails it again
			entry.finish(nil, err)
		}
	}
	return nil
}

// readoptJob restarts one interrupted file job under its original id, as
// the checkpointed Sort it was: the library continues from whatever the
// job's checkpoint directory holds.
func (s *Server) readoptJob(id string, req jobRequest) error {
	in, err := s.resolveDataPath(req.Input)
	if err != nil {
		return fmt.Errorf("readopt %s: input: %w", id, err)
	}
	out, err := s.resolveDataPath(req.Output)
	if err != nil {
		return fmt.Errorf("readopt %s: output: %w", id, err)
	}
	if _, err := os.Stat(in); err != nil {
		return fmt.Errorf("readopt %s: input: %w", id, err)
	}
	opts, err := optspell.Parse(valuesFromMap(req.Options))
	if err != nil {
		return fmt.Errorf("readopt %s: %w", id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	entry := s.jobs.add(id, jobInfo{Input: req.Input, Output: req.Output}, cancel)
	s.resumedJobs.Add(1)
	s.launchFileJob(ctx, cancel, entry, in, out, opts, func() {})
	return nil
}
