package server

// The job registry: every wire job — a streaming POST /v1/sort as well as
// an asynchronous POST /v1/jobs submission — gets an entry with a
// queued→running→done/failed state machine, a cancel hook (DELETE, or the
// client disconnecting on the streaming endpoint), the latest coalesced
// progress event, and a broadcast channel the SSE push waits on. Progress
// callbacks arrive on the sort's internal goroutines and must be fast and
// non-blocking, so an update only swaps the latest event under a mutex and
// closes the notify channel; SSE subscribers coalesce at their own pace.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"colsort"
)

// Job states of the wire API.
const (
	jobQueued  = "queued"  // submitted; not yet observed running (engine admission may be holding it)
	jobRunning = "running" // first progress event seen: the engine granted the lease
	jobDone    = "done"
	jobFailed  = "failed" // error or cancellation
)

// progressEvent is the SSE payload: the raw engine Progress plus the
// phase and an in-phase completion percentage computed server-side, so a
// dashboard needs no knowledge of pass/round arithmetic.
type progressEvent struct {
	Phase    string           `json:"phase"` // "sort" (run formation / engine passes) or "merge"
	Percent  float64          `json:"percent"`
	Progress colsort.Progress `json:"progress"`
}

// eventOf computes the phase and percent of one engine Progress event.
func eventOf(p colsort.Progress) progressEvent {
	if p.FormedRecords > 0 {
		// Replacement-selection run formation: the sort phase of a
		// hierarchical job, reported as records absorbed into runs.
		return progressEvent{
			Phase:    "sort",
			Percent:  math.Round(10000*float64(p.FormedRecords)/float64(p.TotalRecords)) / 100,
			Progress: p,
		}
	}
	if p.TotalRecords > 0 {
		return progressEvent{
			Phase:    "merge",
			Percent:  math.Round(10000*float64(p.MergedRecords)/float64(p.TotalRecords)) / 100,
			Progress: p,
		}
	}
	var frac float64
	if p.Passes > 0 && p.Pass > 0 {
		pass := float64(p.Pass - 1)
		if p.Rounds > 0 {
			pass += float64(p.Round) / float64(p.Rounds)
		}
		frac = pass / float64(p.Passes)
	}
	return progressEvent{Phase: "sort", Percent: math.Round(10000*frac) / 100, Progress: p}
}

// jobInfo is the JSON representation of one job, returned by the job API
// and embedded in the SSE "done" event.
type jobInfo struct {
	ID        string                 `json:"id"`
	State     string                 `json:"state"`
	Streaming bool                   `json:"streaming,omitempty"` // a POST /v1/sort job (output went to the response body)
	Input     string                 `json:"input,omitempty"`     // server-side input path (file jobs)
	Output    string                 `json:"output,omitempty"`    // server-side output path (file jobs)
	Submitted time.Time              `json:"submitted"`
	Finished  *time.Time             `json:"finished,omitempty"`
	Error     string                 `json:"error,omitempty"`
	Progress  *progressEvent         `json:"progress,omitempty"` // latest observed
	Result    *colsort.ResultSummary `json:"result,omitempty"`   // populated on done
}

// jobEntry is the registry's record of one job.
type jobEntry struct {
	mu     sync.Mutex
	info   jobInfo
	seq    int64         // bumped on every update; SSE dedupes on it
	notify chan struct{} // closed and replaced on every update (broadcast)
	cancel context.CancelFunc
}

// snapshot returns a consistent copy of the entry's info and sequence.
func (e *jobEntry) snapshot() (jobInfo, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.info, e.seq
}

// wait returns the channel the next update will close.
func (e *jobEntry) wait() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.notify
}

// broadcast wakes all waiters. Caller holds e.mu.
func (e *jobEntry) broadcast() {
	e.seq++
	close(e.notify)
	e.notify = make(chan struct{})
}

// onProgress is the WithProgress hook: coalesce the latest event, flip
// queued→running (the engine emits the first event only after admission),
// and wake the SSE subscribers. It runs on the sort's goroutines and holds
// the lock only for the swap.
func (e *jobEntry) onProgress(p colsort.Progress) {
	ev := eventOf(p)
	e.mu.Lock()
	if e.info.State == jobQueued {
		e.info.State = jobRunning
	}
	e.info.Progress = &ev
	e.broadcast()
	e.mu.Unlock()
}

// finish moves the entry to its terminal state.
func (e *jobEntry) finish(sum *colsort.ResultSummary, err error) {
	now := time.Now()
	e.mu.Lock()
	if err != nil {
		e.info.State = jobFailed
		e.info.Error = err.Error()
	} else {
		e.info.State = jobDone
		e.info.Result = sum
	}
	e.info.Finished = &now
	e.broadcast()
	e.mu.Unlock()
}

// jobRegistry holds every live job and a bounded tail of finished ones.
type jobRegistry struct {
	mu     sync.Mutex
	seq    int64
	jobs   map[string]*jobEntry
	order  []string // insertion order, for deterministic listing and eviction
	retain int      // finished jobs kept for GET after the fact

	// wg counts the background goroutines of file jobs; Drain waits on it.
	wg sync.WaitGroup
}

func newJobRegistry(retain int) *jobRegistry {
	if retain <= 0 {
		retain = 256
	}
	return &jobRegistry{jobs: make(map[string]*jobEntry), retain: retain}
}

// add mints a new entry in state queued.
func (r *jobRegistry) add(info jobInfo, cancel context.CancelFunc) *jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.addLocked(fmt.Sprintf("j%06d", r.seq), info, cancel)
}

// addWithID registers an entry under a caller-chosen id — boot re-adoption
// restarting a WAL-recorded job under its original identity. The registry's
// sequence must already be seeded past the id (seedSeq), so fresh
// submissions never collide with re-adopted jobs.
func (r *jobRegistry) addWithID(id string, info jobInfo, cancel context.CancelFunc) *jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(id, info, cancel)
}

// addLocked registers an entry in state queued. Caller holds r.mu.
func (r *jobRegistry) addLocked(id string, info jobInfo, cancel context.CancelFunc) *jobEntry {
	info.ID = id
	info.State = jobQueued
	info.Submitted = time.Now()
	e := &jobEntry{
		info:   info,
		notify: make(chan struct{}),
		cancel: cancel,
	}
	r.jobs[info.ID] = e
	r.order = append(r.order, info.ID)
	r.evictLocked()
	return e
}

// seedSeq advances the id sequence to at least n, so ids minted after a
// restart never collide with ids persisted in the jobs WAL.
func (r *jobRegistry) seedSeq(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.seq {
		r.seq = n
	}
}

// evictLocked drops the oldest FINISHED jobs beyond the retain bound, so a
// long-lived server's registry stays bounded while live jobs are never
// evicted. Caller holds r.mu.
func (r *jobRegistry) evictLocked() {
	finished := 0
	for _, id := range r.order {
		if e := r.jobs[id]; e != nil {
			if st, _ := e.snapshot(); st.State == jobDone || st.State == jobFailed {
				finished++
			}
		}
	}
	if finished <= r.retain {
		return
	}
	keep := r.order[:0]
	for _, id := range r.order {
		e := r.jobs[id]
		if e == nil {
			continue
		}
		st, _ := e.snapshot()
		if finished > r.retain && (st.State == jobDone || st.State == jobFailed) {
			delete(r.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	r.order = keep
}

// get looks a job up by id.
func (r *jobRegistry) get(id string) *jobEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// list snapshots every registered job, oldest first.
func (r *jobRegistry) list() []jobInfo {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	entries := make([]*jobEntry, 0, len(ids))
	for _, id := range ids {
		if e := r.jobs[id]; e != nil {
			entries = append(entries, e)
		}
	}
	r.mu.Unlock()
	out := make([]jobInfo, 0, len(entries))
	for _, e := range entries {
		info, _ := e.snapshot()
		out = append(out, info)
	}
	return out
}

// cancelAll cancels every job still holding a context — the drain
// deadline's last resort.
func (r *jobRegistry) cancelAll() {
	r.mu.Lock()
	entries := make([]*jobEntry, 0, len(r.jobs))
	for _, e := range r.jobs {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.cancel()
	}
}
