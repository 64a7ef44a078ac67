package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"physched/client"
	"physched/internal/lab"
	"physched/internal/opt"
	"physched/internal/resultcache"
)

// persistEpoch pins every job timestamp in the persistence tests.
var persistEpoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// persistServer opens a service over a shared disk cache and state
// directory on a fake clock — the restartable configuration. The caller
// restarts by calling it again with the same directories.
func persistServer(t *testing.T, cacheDir, stateDir string, pool *lab.Pool) (*server, *httptest.Server) {
	t.Helper()
	cache, err := resultcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if pool == nil {
		pool = lab.NewPool(2)
		t.Cleanup(pool.Close)
	}
	s := mustServer(t, serverConfig{
		Cache:    cache,
		Pool:     pool,
		MaxCells: 100,
		StateDir: stateDir,
		Clock:    func() time.Time { return persistEpoch },
	})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// rawStream reads a job's full NDJSON stream verbatim.
func rawStream(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	return rawGet(t, ts, "/v1/jobs/"+id+"/stream")
}

// rawGet reads the body of a GET of path verbatim, failing on a non-200.
func rawGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFinishedJobsSurviveRestart: with -state-dir, a finished async job
// outlives the process — after a restart on the same directory it is
// still listed, its status counters are intact, and re-attaching to its
// stream replays the original run byte-for-byte.
func TestFinishedJobsSurviveRestart(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()

	_, ts1 := persistServer(t, cacheDir, stateDir, nil)
	sub := postAsync(t, ts1, gridBody)
	before := waitDone(t, ts1, sub.JobID)
	if before.State != string(jobDone) {
		t.Fatalf("job finished in state %q", before.State)
	}
	beforeStream := rawStream(t, ts1, sub.JobID)
	ts1.Close()

	_, ts2 := persistServer(t, cacheDir, stateDir, nil)
	after := getStatus(t, ts2, sub.JobID)
	if after.State != string(jobDone) || after.Done != before.Done ||
		after.Total != before.Total || after.CacheHits != before.CacheHits {
		t.Errorf("restored status %+v, want %+v", after, before)
	}
	if after.Hash != before.Hash {
		t.Errorf("restored hash %q, want %q", after.Hash, before.Hash)
	}
	if !after.Created.Equal(before.Created) {
		t.Errorf("restored Created %v, want %v", after.Created, before.Created)
	}
	afterStream := rawStream(t, ts2, sub.JobID)
	if !bytes.Equal(beforeStream, afterStream) {
		t.Errorf("replay across restart is not byte-identical:\nbefore: %d bytes\nafter:  %d bytes",
			len(beforeStream), len(afterStream))
	}

	// The restored job appears in the listing.
	resp, err := http.Get(ts2.URL + "/v1/jobs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	var listing jobList
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != sub.JobID {
		t.Errorf("restored listing %+v, want the one restored job", listing.Jobs)
	}
}

// TestFinishedStudyReportSurvivesRestart: a finished async study's
// report stays served by GET /v1/studies/{hash} across a restart on the
// same state directory, byte for byte.
func TestFinishedStudyReportSurvivesRestart(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()

	_, ts1 := persistServer(t, cacheDir, stateDir, nil)
	resp, err := http.Post(ts1.URL+"/v1/studies?async=1", "application/json", strings.NewReader(studyBody))
	if err != nil {
		t.Fatal(err)
	}
	var sub jobSubmitted
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, ts1, sub.JobID); st.State != string(jobDone) {
		t.Fatalf("study finished in state %q (%s)", st.State, st.Error)
	}
	before := rawGet(t, ts1, "/v1/studies/"+sub.Hash)
	ts1.Close()

	_, ts2 := persistServer(t, cacheDir, stateDir, nil)
	after := rawGet(t, ts2, "/v1/studies/"+sub.Hash)
	if !bytes.Equal(before, after) {
		t.Errorf("report changed across restart:\nbefore %s\nafter  %s", before, after)
	}
}

// TestRunningGridJobResumesAfterCrash is the restart-resume acceptance
// test: a grid job is submitted, the process "dies" before any of its
// cells ran, and a new server over the same state and cache directories
// restarts it under the original job id. Cells the service had already
// simulated (a pre-warmed subset) are replayed from the content cache —
// exactly the uncached remainder is re-simulated — and the resumed
// result is byte-identical to an uninterrupted run.
func TestRunningGridJobResumesAfterCrash(t *testing.T) {
	// Reference: the same grid run uninterrupted on an isolated server.
	ref := testServer(t)
	_, refResult := postGrid(t, ref, gridBody)

	cacheDir, stateDir := t.TempDir(), t.TempDir()
	pool := lab.NewPool(1)
	t.Cleanup(pool.Close)
	s1, ts1 := persistServer(t, cacheDir, stateDir, pool)

	// Warm the cache with half the grid: the single-seed subgrid shares
	// cell specs — and therefore content hashes — with the full grid.
	warmBody := strings.Replace(gridBody, `"seeds": [1, 2]`, `"seeds": [1]`, 1)
	_, warm := postGrid(t, ts1, warmBody)
	warmed := len(warm.Cells)

	// Park the pool's only worker so the full-grid job cannot progress,
	// then crash: journals freeze with the job mid-flight.
	gate := make(chan struct{})
	started := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
	}()
	<-started
	sub := postAsync(t, ts1, gridBody)
	s1.crash()
	close(gate)
	<-blockerDone
	ts1.Close()

	// Restart on the same directories: recovery resumes the job under its
	// original id.
	_, ts2 := persistServer(t, cacheDir, stateDir, nil)
	st := waitDone(t, ts2, sub.JobID)
	if st.State != string(jobDone) {
		t.Fatalf("resumed job finished in state %q (%s)", st.State, st.Error)
	}
	if st.ID != sub.JobID {
		t.Fatalf("resumed job id %q, want %q", st.ID, sub.JobID)
	}

	_, resumed := readStream(t, ts2, sub.JobID)
	if len(resumed.Cells) != len(refResult.Cells) {
		t.Fatalf("resumed run produced %d cells, want %d", len(resumed.Cells), len(refResult.Cells))
	}
	// Exactly the warmed cells replay from cache; the rest re-simulate.
	if resumed.CacheHits != warmed {
		t.Errorf("resumed run had %d cache hits, want %d (the pre-crash warmed cells)",
			resumed.CacheHits, warmed)
	}
	a, _ := json.Marshal(refResult.Cells)
	b, _ := json.Marshal(resumed.Cells)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed cells diverged from the uninterrupted run:\n%s\n%s", a, b)
	}
	ag, _ := json.Marshal(refResult.Aggregates)
	bg, _ := json.Marshal(resumed.Aggregates)
	if !bytes.Equal(ag, bg) {
		t.Errorf("resumed aggregates diverged from the uninterrupted run:\n%s\n%s", ag, bg)
	}
}

// TestRunningStudyJobResumesAfterCrash: a study job interrupted by
// process death restarts on the next boot and converges to the same
// report as an uninterrupted run — byte-identical once the two
// cache-accounting fields (simulated_cells, cache_hits), which honestly
// depend on what the dead run had already cached, are zeroed.
func TestRunningStudyJobResumesAfterCrash(t *testing.T) {
	ref := testServer(t)
	_, refStudy := postStudy(t, ref, studyBody)

	cacheDir, stateDir := t.TempDir(), t.TempDir()
	pool := lab.NewPool(1)
	t.Cleanup(pool.Close)
	s1, ts1 := persistServer(t, cacheDir, stateDir, pool)

	gate := make(chan struct{})
	started := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
	}()
	<-started
	resp, err := http.Post(ts1.URL+"/v1/studies?async=1", "application/json", strings.NewReader(studyBody))
	if err != nil {
		t.Fatal(err)
	}
	var sub jobSubmitted
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	s1.crash()
	close(gate)
	<-blockerDone
	ts1.Close()

	s2, ts2 := persistServer(t, cacheDir, stateDir, nil)
	st := waitDone(t, ts2, sub.JobID)
	if st.State != string(jobDone) {
		t.Fatalf("resumed study finished in state %q (%s)", st.State, st.Error)
	}

	report, ok := s2.studies.get(sub.Hash)
	if !ok {
		t.Fatal("resumed study report not retained")
	}
	normalize := func(r opt.Report) []byte {
		r.SimulatedCells, r.CacheHits = 0, 0
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := normalize(*refStudy.Report), normalize(*report); !bytes.Equal(a, b) {
		t.Errorf("resumed report diverged from the uninterrupted run:\n%s\n%s", a, b)
	}
}

// TestResumeRespectsChangedLimits: a journaled job whose request no
// longer plans (the operator tightened -max-cells across the restart)
// surfaces as a failed job, not a crashed or silently vanished one.
func TestResumeRespectsChangedLimits(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()
	pool := lab.NewPool(1)
	t.Cleanup(pool.Close)
	s1, ts1 := persistServer(t, cacheDir, stateDir, pool)

	gate := make(chan struct{})
	started := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
	}()
	<-started
	sub := postAsync(t, ts1, gridBody)
	s1.crash()
	close(gate)
	<-blockerDone
	ts1.Close()

	cache, err := resultcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustServer(t, serverConfig{
		Cache:    cache,
		Pool:     lab.NewPool(1),
		MaxCells: 2, // the 8-cell grid no longer plans
		StateDir: stateDir,
		Clock:    func() time.Time { return persistEpoch },
	})
	t.Cleanup(s2.pool.Close)
	j, ok := s2.jobs.get(sub.JobID)
	if !ok {
		t.Fatal("unresumable job vanished from the listing")
	}
	st := j.status()
	if st.State != string(jobFailed) || st.Error == "" {
		t.Errorf("unresumable job status %+v, want failed with an error message", st)
	}
}

// journalOf reads job id's journal under stateDir as newline-terminated
// lines: the meta line, the stream lines, then the end record.
func journalOf(t *testing.T, stateDir, id string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(stateDir, id+".job.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if len(lines) < 3 || len(lines[len(lines)-1]) != 0 ||
		!bytes.HasPrefix(lines[len(lines)-2], []byte(`{"type":"end"`)) {
		t.Fatalf("journal of %s is not meta, stream, end:\n%s", id, b)
	}
	return lines[:len(lines)-1]
}

// writeJournal writes a job journal into stateDir as recovery finds it.
func writeJournal(t *testing.T, stateDir, id string, lines [][]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(stateDir, id+".job.ndjson"), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornFinalJournalLineResumes: the process died mid-append, leaving a
// torn final journal line. Recovery keeps every line before the tear and
// resumes the job; on a cold cache and a one-worker pool, like the
// original run, the resumed stream is byte-identical to the uninterrupted
// one, and it replays byte-identically across one more restart.
func TestTornFinalJournalLineResumes(t *testing.T) {
	pool := lab.NewPool(1)
	t.Cleanup(pool.Close)
	state1 := t.TempDir()
	_, ts1 := persistServer(t, t.TempDir(), state1, pool)
	sub := postAsync(t, ts1, gridBody)
	waitDone(t, ts1, sub.JobID)
	want := rawStream(t, ts1, sub.JobID)
	lines := journalOf(t, state1, sub.JobID)
	ts1.Close()

	// Keep the meta line and half the stream, then tear the next line.
	keep := 1 + (len(lines)-2)/2
	torn := append(append([][]byte(nil), lines[:keep]...), lines[keep][:len(lines[keep])/2])
	cacheDir, state2 := t.TempDir(), t.TempDir()
	writeJournal(t, state2, sub.JobID, torn)

	pool2 := lab.NewPool(1)
	t.Cleanup(pool2.Close)
	_, ts2 := persistServer(t, cacheDir, state2, pool2)
	if st := waitDone(t, ts2, sub.JobID); st.State != string(jobDone) {
		t.Fatalf("resumed job finished in state %q (%s)", st.State, st.Error)
	}
	got := rawStream(t, ts2, sub.JobID)
	if !bytes.Equal(want, got) {
		t.Errorf("resumed stream differs from the uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	ts2.Close()

	_, ts3 := persistServer(t, cacheDir, state2, nil)
	if replay := rawStream(t, ts3, sub.JobID); !bytes.Equal(got, replay) {
		t.Errorf("resumed stream does not replay byte-identically after a restart:\nwant:\n%s\ngot:\n%s", got, replay)
	}
}

// TestTerminalLineWithoutEndRestores: the process died between appending
// a job's terminal stream line — result, study or error — and its end
// record. Recovery rebuilds the end record from that line: the job comes
// back finished, not re-run, with its status counters and a
// byte-identical stream replay.
func TestTerminalLineWithoutEndRestores(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		submit func(t *testing.T, pool *lab.Pool, ts *httptest.Server) string
		// cancelled jobs end in an error line, which recovery can only
		// read as failed: the cancellation request itself is not
		// journaled.
		cancelled bool
	}{
		{name: "result", submit: func(t *testing.T, _ *lab.Pool, ts *httptest.Server) string {
			return postAsync(t, ts, gridBody).JobID
		}},
		{name: "study", submit: func(t *testing.T, _ *lab.Pool, ts *httptest.Server) string {
			sub, err := client.New(ts.URL).SubmitStudy(ctx, []byte(studyBody))
			if err != nil {
				t.Fatal(err)
			}
			return sub.JobID
		}},
		{name: "error", cancelled: true, submit: func(t *testing.T, pool *lab.Pool, ts *httptest.Server) string {
			// Park the only worker so the job is still running when the
			// cancellation lands.
			gate, started, blockerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(blockerDone)
				pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
			}()
			<-started
			id := postAsync(t, ts, gridBody).JobID
			if _, err := client.New(ts.URL).CancelJob(ctx, id); err != nil {
				t.Fatal(err)
			}
			close(gate)
			<-blockerDone
			return id
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := lab.NewPool(1)
			t.Cleanup(pool.Close)
			cacheDir, state1 := t.TempDir(), t.TempDir()
			_, ts1 := persistServer(t, cacheDir, state1, pool)
			id := tc.submit(t, pool, ts1)
			before := waitDone(t, ts1, id)
			want := rawStream(t, ts1, id)
			lines := journalOf(t, state1, id)
			ts1.Close()

			state2 := t.TempDir()
			writeJournal(t, state2, id, lines[:len(lines)-1]) // drop the end record
			_, ts2 := persistServer(t, cacheDir, state2, nil)
			after := getStatus(t, ts2, id)
			if tc.cancelled {
				if before.State != string(jobCancelled) {
					t.Fatalf("original job ended %q, want cancelled", before.State)
				}
				if after.State != string(jobFailed) || after.Error != before.Error {
					t.Errorf("restored status %+v, want failed with error %q", after, before.Error)
				}
			} else {
				a, _ := json.Marshal(before)
				b, _ := json.Marshal(after)
				if before.State != string(jobDone) || !bytes.Equal(a, b) {
					t.Errorf("restored status differs:\nbefore: %s\nafter:  %s", a, b)
				}
			}
			if got := rawStream(t, ts2, id); !bytes.Equal(want, got) {
				t.Errorf("replay is not byte-identical:\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// FuzzJournalLoadFile feeds arbitrary bytes to the journal loader: it
// must never panic, and a file it accepts starts with a meta line of the
// current version and a non-empty id. The seed is a finished job's
// journal written through the journal's own writer.
func FuzzJournalLoadFile(f *testing.F) {
	jr, err := newJobJournal(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	w, err := jr.create(journalMeta{Type: "meta", V: journalVersion, ID: "seed", Kind: "grid",
		Hash: strings.Repeat("a", 64), Total: 1, Created: persistEpoch, Request: json.RawMessage(gridBody)})
	if err != nil {
		f.Fatal(err)
	}
	w.line([]byte(`{"type":"progress","done":1,"total":1,"label":"ooo","load":0.8,"seed":1,"overloaded":false,"from_cache":false}` + "\n"))
	w.end(journalEnd{Type: "end", State: string(jobDone), Finished: persistEpoch, Done: 1, Total: 1})
	seed, err := os.ReadFile(jr.path("seed"))
	if err != nil {
		f.Fatal(err)
	}
	if jf, ok := jr.loadFile(jr.path("seed")); !ok || jf.end == nil || len(jf.lines) != 1 {
		f.Fatalf("seed journal does not load whole: ok=%v %+v", ok, jf)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.job.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jf, ok := jr.loadFile(path)
		if ok && (jf.meta.Type != "meta" || jf.meta.V != journalVersion || jf.meta.ID == "") {
			t.Errorf("accepted a journal without a current meta line: %+v", jf.meta)
		}
	})
}
