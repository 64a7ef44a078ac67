package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"physched/client"
)

// jobState is the lifecycle of an asynchronously submitted execution.
type jobState string

const (
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// validJobState reports whether s names a lifecycle state — the
// vocabulary the ?state= listing filter accepts.
func validJobState(s string) bool {
	switch jobState(s) {
	case jobRunning, jobDone, jobFailed, jobCancelled:
		return true
	}
	return false
}

// job is one async execution — a grid or a study: its identity, progress
// counters, and every NDJSON line produced so far, kept so a stream
// client can attach — or re-attach — at any time and replay the run from
// the beginning. Lines are append-only and stop once state leaves
// jobRunning. The replay buffer is the deliberate memory cost of
// re-attachment: it is bounded by -max-jobs × -max-cells lines, which
// operators size together (cell results also stay addressable through
// the content cache after eviction).
type job struct {
	id   string
	kind string // "grid" | "study"
	hash string // grid or study content hash
	// requestID is the correlation ID of the submitting request, carried
	// on the job record (and its journal) so log lines and status
	// responses for async work still tie back to the original submit.
	requestID string
	// clock stamps created/finished and measures age. Injected (the
	// server wires obs.SystemClock, tests wire a fake) so job lifecycle
	// timestamps are deterministic under test.
	clock   func() time.Time
	created time.Time
	// cancel aborts the job's execution context (DELETE /v1/jobs/{id}).
	cancel context.CancelFunc
	// persist journals the job's lines and terminal state to the state
	// dir (nil without -state-dir). Called under mu, so writes are
	// ordered exactly like the in-memory replay buffer.
	persist *jobWriter

	mu        sync.Mutex
	cond      *sync.Cond
	lines     [][]byte
	state     jobState
	cancelled bool // cancel requested; colours the terminal state
	done      int
	total     int
	cacheHits int
	errMsg    string
	finished  time.Time
	// traceData is the rendered per-cell trace JSONL of a ?trace=1 job
	// (GET /v1/jobs/{id}/trace), attached when execution finishes and
	// before the terminal line. Held in memory only — traces do not
	// survive a restart; a resumed traced job regenerates its trace by
	// re-running.
	traceData []byte
	traced    bool // submitted with ?trace=1
}

// newJob builds a running job from its journal meta. A meta without an
// id is a new submission: the job gets a fresh id and is created now.
func newJob(meta journalMeta, clock func() time.Time) *job {
	j := &job{
		id:        meta.ID,
		kind:      meta.Kind,
		hash:      meta.Hash,
		requestID: meta.RequestID,
		traced:    meta.Trace,
		clock:     clock,
		created:   meta.Created,
		state:     jobRunning,
		total:     meta.Total,
	}
	if j.id == "" {
		j.id, j.created = newJobID(), clock()
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// newJobID returns a random 16-hex-character job handle.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the platform RNG is gone; nothing sensible to serve
	}
	return hex.EncodeToString(b[:])
}

// append records one stream line and folds it into the status counters;
// a result, study or error line completes the job. It is the emit
// callback of runGrid/runStudy, called sequentially from the job's
// goroutine.
func (j *job) append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lines = append(j.lines, b)
	if j.persist != nil {
		j.persist.line(b)
	}
	switch l := v.(type) {
	case progressLine:
		j.done, j.total = l.Done, l.Total
	case resultLine:
		j.state = jobDone
		j.cacheHits = l.CacheHits
		j.finished = j.clock()
	case studyLine:
		j.state = jobDone
		j.cacheHits = l.Report.CacheHits
		// Progress counted executed cells (halving re-reads earlier rungs,
		// so the live total can exceed the budget); the finished job
		// reports the budget accounting instead.
		j.done = l.Report.EvaluatedCells
		j.total = l.Report.Budget
		j.finished = j.clock()
	case errorLine:
		j.state = jobFailed
		if j.cancelled {
			j.state = jobCancelled
		}
		j.errMsg = l.Error
		j.finished = j.clock()
	}
	if j.state != jobRunning && j.persist != nil {
		j.persist.end(j.endRecordLocked())
	}
	j.cond.Broadcast()
	return nil
}

// seal marks a job that ended without a terminal line as failed — a
// belt-and-braces guard so no job stays "running" forever.
func (j *job) seal() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobRunning {
		j.state = jobFailed
		if j.cancelled {
			j.state = jobCancelled
		}
		j.errMsg = "execution ended without a result"
		j.finished = j.clock()
		if j.persist != nil {
			j.persist.end(j.endRecordLocked())
		}
	}
	j.cond.Broadcast()
}

// endRecordLocked snapshots the terminal journal record.
//
// The caller holds j.mu, so the guarded status fields are snapshotted
// atomically with the state transition.
func (j *job) endRecordLocked() journalEnd {
	return journalEnd{
		Type: "end", State: string(j.state), Finished: j.finished,
		Done: j.done, Total: j.total, CacheHits: j.cacheHits, Error: j.errMsg,
	}
}

// requestCancel aborts the job's context. It reports false when the job
// had already finished.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	running := j.state == jobRunning
	if running {
		j.cancelled = true
	}
	j.mu.Unlock()
	if running && j.cancel != nil {
		j.cancel()
	}
	return running
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.id, Kind: j.kind, Hash: j.hash, State: string(j.state),
		Done: j.done, Total: j.total, CacheHits: j.cacheHits,
		Created: j.created, AgeSec: j.clock().Sub(j.created).Seconds(),
		Error: j.errMsg, RequestID: j.requestID,
	}
	if j.state != jobRunning {
		f := j.finished
		st.Finished = &f
	}
	return st
}

func (j *job) submitted() jobSubmitted {
	return jobSubmitted{
		JobID:     j.id,
		Hash:      j.hash,
		StatusURL: "/v1/jobs/" + j.id,
		StreamURL: "/v1/jobs/" + j.id + "/stream",
	}
}

// jobManager tracks async jobs with bounded retention: once more than max
// jobs are held, finished ones are evicted oldest-first. Running jobs are
// never evicted (admission control bounds how many can exist at once), so
// the held count can transiently exceed max until they finish.
type jobManager struct {
	// onEvict, when non-nil, is told the id of every evicted job — the
	// journal uses it to delete the job's state file. Set before any jobs
	// are added (it is called under mu).
	onEvict func(id string)

	mu      sync.Mutex
	max     int
	jobs    map[string]*job
	order   []*job // insertion order, oldest first
	evicted uint64 // jobs dropped by retention, for /metrics
}

func newJobManager(max int) *jobManager {
	return &jobManager{max: max, jobs: map[string]*job{}}
}

func (m *jobManager) add(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	for len(m.order) > m.max {
		evicted := false
		for i, old := range m.order {
			old.mu.Lock()
			running := old.state == jobRunning
			old.mu.Unlock()
			if running {
				continue
			}
			m.order = append(m.order[:i], m.order[i+1:]...)
			delete(m.jobs, old.id)
			m.evicted++
			if m.onEvict != nil {
				m.onEvict(old.id)
			}
			evicted = true
			break
		}
		if !evicted {
			break // everything retained is still running
		}
	}
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// snapshot copies the retained jobs, oldest first.
func (m *jobManager) snapshot() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*job(nil), m.order...)
}

// list snapshots every retained job's status, oldest first (creation
// order, ties broken by id so the listing — and its pagination — is
// stable).
func (m *jobManager) list() []jobStatus {
	jobs := m.snapshot()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	sort.SliceStable(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// counts tallies retained jobs by state plus the eviction counter, for
// /metrics.
func (m *jobManager) counts() (byState map[jobState]int, evicted uint64) {
	byState = map[jobState]int{}
	for _, j := range m.snapshot() {
		j.mu.Lock()
		byState[j.state]++
		j.mu.Unlock()
	}
	m.mu.Lock()
	evicted = m.evicted
	m.mu.Unlock()
	return byState, evicted
}

// addJob registers a running job for meta. With -state-dir its journal
// starts over at the meta line, so a resumed job's stream restarts from
// scratch; a journal that cannot be written degrades to memory-only
// retention, and the job itself still runs.
func (s *server) addJob(meta journalMeta) *job {
	j := newJob(meta, s.clock)
	if s.journal != nil {
		meta.Type, meta.V, meta.ID, meta.Created = "meta", journalVersion, j.id, j.created
		if w, err := s.journal.create(meta); err == nil {
			j.persist = w
		}
	}
	s.jobs.add(j)
	return j
}

// startJob registers a job for meta and runs p in the background as a
// tracked, cancellable job. A submission passes meta without an id, so
// the job gets a fresh one; crash recovery passes the journaled meta, so
// the resumed job keeps its original id and creation time. meta.Request
// is the original document body, journaled so the job can be restarted
// after process death. The caller holds one admission slot (taken by
// admit for submissions, seized directly by recovery), which the job
// releases when execution finishes. The job runs to completion even if
// the submitter disconnects — that is the point of async submission —
// and DELETE /v1/jobs/{id} cancels it through its context. The finished
// job's end-to-end latency lands in the by-kind job histogram, and one
// structured log line records the outcome under the submitting request's
// correlation ID.
func (s *server) startJob(meta journalMeta, p *plan) *job {
	j := s.addJob(meta)
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	s.jobsWG.Add(1)
	// The goroutine exits when run returns; cancel (DELETE /v1/jobs/{id}
	// or drain expiry) stops run between cells, and jobsWG tracks it.
	go func() {
		defer s.jobsWG.Done()
		defer s.release()
		defer cancel()
		// The terminal line is held back until the trace is attached, so
		// a finished job never reads as having no trace.
		var terminal any
		trace := p.run(ctx, func(v any) error {
			if _, ok := v.(progressLine); ok {
				return j.append(v)
			}
			terminal = v
			return nil
		})
		j.mu.Lock()
		j.traceData = trace
		j.mu.Unlock()
		if terminal != nil {
			j.append(terminal)
		}
		j.seal()
		j.mu.Lock()
		state, errMsg := j.state, j.errMsg
		seconds := j.finished.Sub(j.created).Seconds()
		done, total := j.done, j.total
		j.mu.Unlock()
		s.jobDur.With(j.kind).Observe(seconds)
		s.logger.LogAttrs(ctx, slog.LevelInfo, "job finished",
			slog.String("job_id", j.id),
			slog.String("request_id", j.requestID),
			slog.String("kind", j.kind),
			slog.String("state", string(state)),
			slog.Int("done", done),
			slog.Int("total", total),
			slog.Float64("dur_seconds", seconds),
			slog.String("error", errMsg),
		)
	}()
	return j
}

// renderTrace renders a traced grid plan's per-cell recorders as the
// job's trace: for each cell one header line (index, hash, label, load,
// seed, event and dropped counts) followed by the cell's events, all
// JSONL. It returns nil for an untraced plan and non-nil otherwise, even
// when empty, so "attached but empty" differs from "lost in a restart".
func (s *server) renderTrace(p *gridPlan) []byte {
	if p.recs == nil {
		return nil
	}
	var buf bytes.Buffer
	var events, dropped uint64
	for i, rec := range p.recs {
		evs := rec.Events()
		hdr := client.TraceCellHeader{
			Type: "cell", Index: i, Hash: p.keys[i], Label: p.cells[i].Label,
			Load: p.cells[i].Scenario.Load, Seed: p.cells[i].Scenario.Seed,
			Events: len(evs), Dropped: rec.Dropped(),
		}
		hb, err := json.Marshal(hdr)
		if err != nil {
			continue
		}
		buf.Write(append(hb, '\n'))
		for _, e := range evs {
			eb, err := json.Marshal(e)
			if err != nil {
				continue
			}
			buf.Write(append(eb, '\n'))
		}
		events += uint64(len(evs))
		dropped += rec.Dropped()
	}
	s.traceEvents.Add(events)
	s.traceDropped.Add(dropped)
	if buf.Len() == 0 {
		return []byte{}
	}
	return buf.Bytes()
}

// handleJobTrace serves a finished traced job's per-cell simulation
// trace as NDJSON: cell header lines interleaved with trace events.
// Unknown jobs 404; jobs not submitted with ?trace=1 404 with a
// distinct message; still-running jobs 409 (the trace attaches at
// completion).
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNoJob)
		return
	}
	j.mu.Lock()
	traced, running, data := j.traced, j.state == jobRunning, j.traceData
	j.mu.Unlock()
	if !traced {
		writeError(w, http.StatusNotFound,
			errors.New("job has no trace: submit with ?trace=1 (traces are held in memory and do not survive restarts)"))
		return
	}
	if running {
		writeError(w, http.StatusConflict,
			errors.New("job is still running; the trace attaches when it finishes"))
		return
	}
	if data == nil {
		// Traced flag restored from a journal, but the trace itself died
		// with the previous process and the resumed run has not finished.
		writeError(w, http.StatusNotFound,
			errors.New("trace not available: it did not survive a restart"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleJobs lists retained async jobs, newest-page-first-proof: stable
// oldest-first order, filtered by ?state= and ?kind=, paginated by
// ?page= and ?page_size=.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	page, size, err := parsePage(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	state, kind := q.Get("state"), q.Get("kind")
	if state != "" && !validJobState(state) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("state must be one of running, done, failed, cancelled; got %q", state))
		return
	}
	if kind != "" && kind != "grid" && kind != "study" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("kind must be grid or study, got %q", kind))
		return
	}
	all := s.jobs.list()
	filtered := make([]jobStatus, 0, len(all))
	for _, st := range all {
		if (state == "" || st.State == state) && (kind == "" || st.Kind == kind) {
			filtered = append(filtered, st)
		}
	}
	items, info := paginate(filtered, page, size)
	writeJSON(w, http.StatusOK, jobList{Jobs: items, PageInfo: info})
}

// handleJob serves an async job's status and progress counters.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNoJob)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobCancel cancels a running async job through its context: the
// execution stops between cells (completed cells keep their cached
// results), the job transitions to "cancelled", and its stream terminates
// with an error line. Unknown jobs 404; finished jobs 409.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNoJob)
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, errors.New("job already finished"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

var errNoJob = errors.New("no such job (finished jobs are retained up to -max-jobs)")

// handleJobStream (re)attaches to an async job's NDJSON stream: it
// replays every line produced so far, then follows the live run until
// the terminal result or error line. A failed write — the client went
// away — stops the stream; the job itself keeps running.
func (s *server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNoJob)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	go func() { // wake the wait loop when the client disconnects
		<-ctx.Done()
		// Broadcast under the mutex: otherwise the wakeup could land
		// between the loop's ctx check and its cond.Wait and be lost.
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	}()
	cursor := 0
	for {
		j.mu.Lock()
		for cursor >= len(j.lines) && j.state == jobRunning && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := j.lines[cursor:]
		finished := j.state != jobRunning
		j.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, line := range batch {
			if _, err := w.Write(line); err != nil {
				return // dead connection: stop the stream
			}
			cursor++
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if finished {
			// No lines are appended after the terminal one, and the
			// snapshot above was taken at or after it, so the batch we
			// just wrote was the remainder.
			return
		}
	}
}
