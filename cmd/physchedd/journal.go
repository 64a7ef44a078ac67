package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// journalVersion is bumped whenever the journal file format changes;
// files with an unknown version are left on disk but not loaded.
const journalVersion = 1

// journalMeta is the first line of a job's journal file: everything
// needed to identify the job and — via the original request body — to
// restart it after process death.
type journalMeta struct {
	Type    string          `json:"type"` // "meta"
	V       int             `json:"v"`
	ID      string          `json:"id"`
	Kind    string          `json:"kind"` // grid | study
	Hash    string          `json:"hash"`
	Total   int             `json:"total"`
	Created time.Time       `json:"created"`
	Request json.RawMessage `json:"request"` // original document body
	// RequestID correlates the job with the HTTP request that submitted
	// it; restored jobs keep reporting it. omitempty keeps journals from
	// before this field byte-compatible.
	RequestID string `json:"request_id,omitempty"`
	// Trace records a ?trace=1 submission so a resumed run re-enables
	// tracing (the rendered trace itself is memory-only and is
	// regenerated by the resumed execution).
	Trace bool `json:"trace,omitempty"`
}

// journalEnd is the last line of a finished job's journal file: the
// terminal state plus the status counters, so recovery restores the job
// without re-decoding its stream.
type journalEnd struct {
	Type      string    `json:"type"` // "end"
	State     string    `json:"state"`
	Finished  time.Time `json:"finished"`
	Done      int       `json:"done"`
	Total     int       `json:"total"`
	CacheHits int       `json:"cache_hits"`
	Error     string    `json:"error,omitempty"`
}

// jobJournal persists async jobs under a state directory, one NDJSON
// file per job: a meta line, then the job's stream lines verbatim (which
// is what makes replay after restart byte-identical), then an end line
// once the job finishes. A file without an end line is a job that was
// running when the process died — recovery restarts it.
type jobJournal struct {
	dir string
	// disabled drops all writes — the crash() test hook, simulating the
	// process dying with journals frozen at their current content.
	disabled atomic.Bool
}

func newJobJournal(dir string) (*jobJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	return &jobJournal{dir: dir}, nil
}

func (j *jobJournal) path(id string) string {
	return filepath.Join(j.dir, id+".job.ndjson")
}

// create opens a new journal file seeded with the meta line.
func (j *jobJournal) create(meta journalMeta) (*jobWriter, error) {
	if j.disabled.Load() {
		return nil, fmt.Errorf("journal disabled")
	}
	line, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.path(meta.ID), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return &jobWriter{journal: j, f: f}, nil
}

// remove deletes a job's journal file (retention eviction).
func (j *jobJournal) remove(id string) {
	if j.disabled.Load() {
		return
	}
	os.Remove(j.path(id))
}

// journalFile is one loaded job file: its meta, the raw stream lines
// (newline-terminated, verbatim), and the end record if the job had
// finished.
type journalFile struct {
	meta  journalMeta
	lines [][]byte
	end   *journalEnd
}

// load reads every job file in the state directory. Unreadable or
// unversioned files are skipped, not fatal: a half-written journal must
// not take the service down with it.
func (j *jobJournal) load() ([]journalFile, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var out []journalFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".job.ndjson") {
			continue
		}
		jf, ok := j.loadFile(filepath.Join(j.dir, e.Name()))
		if ok {
			out = append(out, jf)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if !out[a].meta.Created.Equal(out[b].meta.Created) {
			return out[a].meta.Created.Before(out[b].meta.Created)
		}
		return out[a].meta.ID < out[b].meta.ID
	})
	return out, nil
}

func (j *jobJournal) loadFile(path string) (journalFile, bool) {
	f, err := os.Open(path)
	if err != nil {
		return journalFile{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var jf journalFile
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if first {
			if err := json.Unmarshal(line, &jf.meta); err != nil ||
				jf.meta.Type != "meta" || jf.meta.V != journalVersion || jf.meta.ID == "" {
				return journalFile{}, false
			}
			first = false
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &probe) != nil {
			// A torn final line from the crash; everything before it is
			// intact, so keep what we have.
			break
		}
		if probe.Type == "end" {
			var end journalEnd
			if json.Unmarshal(line, &end) == nil {
				jf.end = &end
			}
			break
		}
		jf.lines = append(jf.lines, append(append([]byte(nil), line...), '\n'))
	}
	if first {
		return journalFile{}, false // empty file
	}
	return jf, true
}

// jobWriter appends one job's stream to its journal file. Calls are
// serialised by the job's mutex; end closes the file.
type jobWriter struct {
	journal *jobJournal
	f       *os.File
	closed  bool
}

// line appends one newline-terminated stream line. Write errors are
// swallowed: journaling is best-effort durability on top of an in-memory
// service, and a full disk must not fail the run itself.
func (w *jobWriter) line(b []byte) {
	if w.closed || w.journal.disabled.Load() {
		return
	}
	w.f.Write(b)
}

// end appends the terminal record and closes the file.
func (w *jobWriter) end(rec journalEnd) {
	if w.closed {
		return
	}
	w.closed = true
	if !w.journal.disabled.Load() {
		if b, err := json.Marshal(rec); err == nil {
			w.f.Write(append(b, '\n'))
		}
	}
	w.f.Close()
}

// recoverJobs reloads the state directory on startup: finished jobs come
// back queryable and replayable byte-for-byte, finished studies with
// their reports, in journal (creation) order; jobs that were running
// when the process died are restarted from their journaled request —
// through the content cache, so only cells the dead run had not finished
// are re-simulated.
func (s *server) recoverJobs() error {
	if s.journal == nil {
		return nil
	}
	files, err := s.journal.load()
	if err != nil {
		return err
	}
	for _, jf := range files {
		if jf.end == nil && len(jf.lines) > 0 {
			// The process died between appending a terminal stream line and
			// its end record: reconstruct the end from the stream.
			if end, ok := terminalEnd(jf.lines[len(jf.lines)-1], s.clock); ok {
				jf.end = end
			}
		}
		if jf.end != nil {
			j := restoreJob(jf, s.clock)
			s.jobs.add(j)
			if j.state == jobDone && jf.meta.Kind == "study" && len(jf.lines) > 0 {
				s.restoreReport(jf.lines[len(jf.lines)-1])
			}
			continue
		}
		s.resumeJob(jf.meta)
	}
	return nil
}

// restoreReport puts a finished study's report, carried by its terminal
// study line, back where GET /v1/studies/{hash} looks for it.
func (s *server) restoreReport(line []byte) {
	var sl studyLine
	if json.Unmarshal(line, &sl) == nil && sl.Type == "study" && sl.Report != nil {
		s.studies.put(sl.StudyHash, sl.Report)
	}
}

// terminalEnd reconstructs an end record from a stream line if that line
// is terminal (result, study or error).
func terminalEnd(line []byte, clock func() time.Time) (*journalEnd, bool) {
	var probe struct {
		Type string `json:"type"`
	}
	if json.Unmarshal(line, &probe) != nil {
		return nil, false
	}
	switch probe.Type {
	case "result":
		var rl resultLine
		if json.Unmarshal(line, &rl) != nil {
			return nil, false
		}
		return &journalEnd{Type: "end", State: string(jobDone),
			Done: len(rl.Cells), Total: len(rl.Cells), CacheHits: rl.CacheHits,
			Finished: clock()}, true
	case "study":
		var sl studyLine
		if json.Unmarshal(line, &sl) != nil || sl.Report == nil {
			return nil, false
		}
		return &journalEnd{Type: "end", State: string(jobDone),
			Done: sl.Report.EvaluatedCells, Total: sl.Report.Budget,
			CacheHits: sl.Report.CacheHits, Finished: clock()}, true
	case "error":
		var el errorLine
		if json.Unmarshal(line, &el) != nil {
			return nil, false
		}
		return &journalEnd{Type: "end", State: string(jobFailed),
			Error: el.Error, Finished: clock()}, true
	}
	return nil, false
}

// restoreJob rebuilds a finished job from its journal: original id,
// timestamps and counters, with the raw stream lines as the replay
// buffer — so a re-attached stream is byte-identical to the original.
func restoreJob(jf journalFile, clock func() time.Time) *job {
	j := newJob(jf.meta, clock)
	j.lines = jf.lines
	j.state = jobState(jf.end.State)
	j.done, j.total, j.cacheHits = jf.end.Done, jf.end.Total, jf.end.CacheHits
	j.errMsg, j.finished = jf.end.Error, jf.end.Finished
	if !validJobState(jf.end.State) || j.state == jobRunning {
		j.state = jobFailed
		j.errMsg = "journal ended in an invalid state"
	}
	return j
}

// resumeJob restarts a job that was running when the process died: the
// journaled request is re-planned through the submit path and execution
// restarts under the original job id, with the journal starting over at
// the meta line. The restarted run reads the content cache, so cells the
// dead run completed are replayed from cache rather than re-simulated,
// and a traced job regenerates the trace that died with the old process.
// Re-planning failures surface as a failed job, not a dead server.
func (s *server) resumeJob(meta journalMeta) {
	p, _, err := s.planSubmission(meta.Kind, meta.Request, meta.Trace)
	if err != nil {
		s.addJob(meta).append(errorLine{Type: "error",
			Error: "restart: journaled request no longer plans (changed limits or corrupt journal)"})
		return
	}
	// The dead process held an admission slot for this job; its
	// continuation takes one directly rather than re-queueing behind
	// -max-inflight (recovery is a resumption, not a new submission).
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	s.startJob(meta, p)
}

// crash simulates process death for tests: journal writes stop (files
// freeze at their current content, like a kill would leave them),
// running jobs are cancelled and joined. The server must not be used
// afterwards; start a fresh one on the same state dir to exercise
// recovery.
func (s *server) crash() {
	if s.journal != nil {
		s.journal.disabled.Store(true)
	}
	for _, j := range s.jobs.snapshot() {
		j.requestCancel()
	}
	s.jobsWG.Wait()
}
