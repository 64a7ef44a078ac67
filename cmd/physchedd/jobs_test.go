package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"physched/client"
	"physched/internal/lab"
	"physched/internal/resultcache"
)

// postAsync submits a grid asynchronously and returns the 202 body.
func postAsync(t *testing.T, ts *httptest.Server, body string) jobSubmitted {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/grids?async=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", resp.StatusCode)
	}
	var sub jobSubmitted
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.JobID == "" || sub.Hash == "" {
		t.Fatalf("bad submit body: %+v", sub)
	}
	return sub
}

// getStatus fetches a job's status document.
func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint returned %d", resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls a job until it leaves the running state.
func waitDone(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State != string(jobRunning) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 30s: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readStream reads a job's NDJSON stream to the end.
func readStream(t *testing.T, ts *httptest.Server, id string) (progress []progressLine, result resultLine) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch kind.Type {
		case "progress":
			var p progressLine
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			progress = append(progress, p)
		case "result":
			if err := json.Unmarshal(sc.Bytes(), &result); err != nil {
				t.Fatal(err)
			}
		case "error":
			t.Fatalf("stream reported an error line: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return progress, result
}

// TestAsyncJobRoundTrip is the async acceptance test: submit → poll →
// stream → fetch, then re-POST the same grid synchronously and observe
// zero re-simulated cells with byte-identical results.
func TestAsyncJobRoundTrip(t *testing.T) {
	ts := testServer(t)

	sub := postAsync(t, ts, gridBody)
	st := waitDone(t, ts, sub.JobID)
	const total = 2 * 2 * 2
	if st.State != string(jobDone) || st.Done != total || st.Total != total {
		t.Fatalf("finished job status %+v, want done %d/%d", st, total, total)
	}
	if st.Finished == nil || st.Hash != sub.Hash {
		t.Errorf("incomplete status document: %+v", st)
	}

	// (Re)attach to the stream after completion: the full run replays.
	progress, result := readStream(t, ts, sub.JobID)
	if len(progress) != total {
		t.Errorf("replayed %d progress lines, want %d", len(progress), total)
	}
	if result.GridHash != sub.Hash || len(result.Cells) != total {
		t.Fatalf("bad replayed result line: %+v", result)
	}
	if len(result.Aggregates) != 2*2 {
		t.Errorf("replayed %d aggregates, want 4", len(result.Aggregates))
	}
	// A second attach replays identically.
	progress2, result2 := readStream(t, ts, sub.JobID)
	if len(progress2) != len(progress) {
		t.Errorf("second attach replayed %d progress lines, want %d", len(progress2), len(progress))
	}
	a, _ := json.Marshal(result)
	b, _ := json.Marshal(result2)
	if !bytes.Equal(a, b) {
		t.Errorf("stream replays diverged:\n%s\n%s", a, b)
	}

	// Re-POST the same grid synchronously: everything is cached and
	// byte-identical to the async run.
	_, syncResult := postGrid(t, ts, gridBody)
	if syncResult.CacheHits != total {
		t.Errorf("sync re-POST re-simulated %d of %d cells", total-syncResult.CacheHits, total)
	}
	sa, _ := json.Marshal(result.Cells)
	sb, _ := json.Marshal(syncResult.Cells)
	if !bytes.Equal(sa, sb) {
		t.Errorf("async and sync results diverged:\n%s\n%s", sa, sb)
	}

	// Fetch: every cell the async job simulated is addressable through
	// the content cache.
	fetch, err := http.Get(ts.URL + "/v1/results/" + result.Cells[0].Hash)
	if err != nil {
		t.Fatal(err)
	}
	fetch.Body.Close()
	if fetch.StatusCode != http.StatusOK {
		t.Errorf("fetch by hash after async run: status %d", fetch.StatusCode)
	}

	// Unknown jobs 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestAdmissionControl429: past -max-inflight the server rejects new
// executions instead of queueing them, and the slot frees once the
// in-flight job finishes.
func TestAdmissionControl429(t *testing.T) {
	pool := lab.NewPool(1)
	ts := testServerWith(t, serverConfig{
		Cache:       resultcache.NewMemory(),
		Pool:        pool,
		MaxCells:    100,
		MaxInflight: 1,
	})

	// Park the pool's only worker so the first admitted job stays
	// in flight deterministically.
	gate := make(chan struct{})
	started := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
	}()
	<-started

	sub := postAsync(t, ts, smallGridBody(500)) // admitted, queued behind the blocker

	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(smallGridBody(600)))
	if err != nil {
		t.Fatal(err)
	}
	var out client.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&out)
	retryAfter := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	if out.Error.Code != client.CodeOverCapacity || out.Error.Message == "" {
		t.Errorf("429 envelope %+v, want code %q with a message", out, client.CodeOverCapacity)
	}
	if _, err := strconv.Atoi(retryAfter); err != nil {
		t.Errorf("429 Retry-After header %q is not an integer", retryAfter)
	}

	close(gate)
	<-blockerDone
	waitDone(t, ts, sub.JobID)

	// The slot is released shortly after the job completes; the same
	// rejected grid is then admitted and runs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(smallGridBody(600)))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		if code == http.StatusOK {
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if code != http.StatusTooManyRequests {
			t.Fatalf("retry got %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after the job finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsListAndCancel covers the job lifecycle endpoints: GET /v1/jobs
// lists jobs with status and age, DELETE /v1/jobs/{id} cancels a running
// job through its context (404 unknown, 409 already finished).
func TestJobsListAndCancel(t *testing.T) {
	pool := lab.NewPool(1)
	ts := testServerWith(t, serverConfig{
		Cache:    resultcache.NewMemory(),
		Pool:     pool,
		MaxCells: 100,
	})

	// Park the pool's only worker so the submitted job deterministically
	// has cells still pending when it is cancelled.
	gate := make(chan struct{})
	started := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
	}()
	<-started

	sub := postAsync(t, ts, gridBody)

	// The running job appears in the listing with its metadata.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 {
		t.Fatalf("listing has %d jobs, want 1: %+v", len(listing.Jobs), listing)
	}
	j := listing.Jobs[0]
	if j.ID != sub.JobID || j.Kind != "grid" || j.State != string(jobRunning) || j.AgeSec < 0 {
		t.Errorf("bad listed job: %+v", j)
	}

	// Cancel it; the job transitions to "cancelled" once its execution
	// unwinds, and its stream terminates with an error line.
	del := func() *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.JobID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := del()
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", first.StatusCode)
	}
	close(gate)
	<-blockerDone
	st := waitDone(t, ts, sub.JobID)
	if st.State != string(jobCancelled) || st.Error == "" {
		t.Errorf("cancelled job status %+v, want state cancelled with an error message", st)
	}

	// Cancelling again conflicts; unknown jobs 404.
	again := del()
	again.Body.Close()
	if again.StatusCode != http.StatusConflict {
		t.Errorf("second cancel status %d, want 409", again.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/deadbeefdeadbeef", nil)
	if err != nil {
		t.Fatal(err)
	}
	missing, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-job cancel status %d, want 404", missing.StatusCode)
	}
}

// TestJobLifecycleFakeClock drives a job on an injected clock: every
// timestamp in the status document is an exact function of the fake
// time, with no real-clock jitter.
func TestJobLifecycleFakeClock(t *testing.T) {
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := epoch
	clock := func() time.Time { return now }

	j := newJob(journalMeta{Kind: "grid", Hash: "cafebabe", Total: 4}, clock)
	if !j.created.Equal(epoch) {
		t.Fatalf("created = %v, want %v", j.created, epoch)
	}

	now = epoch.Add(90 * time.Second)
	st := j.status()
	if st.AgeSec != 90 {
		t.Errorf("running AgeSec = %v, want exactly 90", st.AgeSec)
	}
	if st.Finished != nil {
		t.Errorf("running job has Finished = %v", st.Finished)
	}

	if err := j.append(progressLine{Type: "progress", Done: 2, Total: 4}); err != nil {
		t.Fatal(err)
	}
	now = epoch.Add(5 * time.Minute)
	if err := j.append(resultLine{Type: "result", GridHash: "cafebabe", CacheHits: 1}); err != nil {
		t.Fatal(err)
	}
	st = j.status()
	if st.State != string(jobDone) || st.CacheHits != 1 {
		t.Fatalf("terminal status %+v, want done with 1 cache hit", st)
	}
	if st.Finished == nil || !st.Finished.Equal(epoch.Add(5*time.Minute)) {
		t.Errorf("Finished = %v, want %v", st.Finished, epoch.Add(5*time.Minute))
	}

	// Sealing a failed run stamps the same injected clock.
	now = epoch.Add(10 * time.Minute)
	k := newJob(journalMeta{Kind: "study", Hash: "deadbeef", Total: 1}, clock)
	k.seal()
	ks := k.status()
	if ks.State != string(jobFailed) || ks.Finished == nil || !ks.Finished.Equal(now) {
		t.Errorf("sealed status %+v, want failed at %v", ks, now)
	}
}

// TestJobRetentionBounded: finished jobs past -max-jobs are evicted
// oldest-first and their handles 404.
func TestJobRetentionBounded(t *testing.T) {
	ts := testServerWith(t, serverConfig{
		Cache:    resultcache.NewMemory(),
		Pool:     lab.NewPool(2),
		MaxCells: 100,
		MaxJobs:  2,
	})

	var ids []string
	for i := 0; i < 3; i++ {
		sub := postAsync(t, ts, smallGridBody(int64(700+10*i)))
		waitDone(t, ts, sub.JobID)
		ids = append(ids, sub.JobID)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job should be evicted, got status %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		st := getStatus(t, ts, id)
		if st.State != string(jobDone) {
			t.Errorf("retained job %s in state %q", id, st.State)
		}
	}
}
