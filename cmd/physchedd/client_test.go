package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"physched/client"
	"physched/internal/lab"
	"physched/internal/resultcache"
)

// TestTypedClientRoundTrip drives the full API surface through the typed
// physched/client package against a live server: registries, sync and
// async grids, studies, job lifecycle, metrics. The client decodes the
// very structs the server encodes (they are aliases), so this test is
// the drift tripwire for the whole wire format.
func TestTypedClientRoundTrip(t *testing.T) {
	ts := testServer(t)
	c := client.New(ts.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	pols, err := c.Policies(ctx, client.Page{})
	if err != nil || len(pols.Policies) == 0 {
		t.Fatalf("policies: %v (%d)", err, len(pols.Policies))
	}
	wls, err := c.Workloads(ctx, client.Page{Size: 2})
	if err != nil || len(wls.Workloads) > 2 {
		t.Fatalf("workloads page_size=2: %v (%d)", err, len(wls.Workloads))
	}

	// Sync grid with progress callbacks.
	progress := 0
	result, err := c.RunGrid(ctx, []byte(gridBody), func(client.ProgressLine) { progress++ })
	if err != nil {
		t.Fatalf("run grid: %v", err)
	}
	const total = 2 * 2 * 2
	if progress != total || len(result.Cells) != total {
		t.Fatalf("grid run: %d progress, %d cells, want %d", progress, len(result.Cells), total)
	}

	// Cached results are addressable by hash.
	res, err := c.Result(ctx, result.Cells[0].Hash)
	if err != nil || !res.FromCache {
		t.Fatalf("result by hash: %v (%+v)", err, res)
	}
	if _, err := c.Aggregate(ctx, result.Aggregates[0].Hash); err != nil {
		t.Fatalf("aggregate by hash: %v", err)
	}

	// Async lifecycle: submit, wait, replay — byte-compatible with the
	// sync result since everything is cached.
	sub, err := c.SubmitGrid(ctx, []byte(gridBody))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.WaitJob(ctx, sub.JobID, time.Millisecond)
	if err != nil || st.State != "done" {
		t.Fatalf("wait: %v (state %q)", err, st.State)
	}
	if st.Hash != sub.Hash {
		t.Errorf("job hash %q, want %q", st.Hash, sub.Hash)
	}
	replayed, study, err := c.StreamJob(ctx, sub.JobID, nil)
	if err != nil || study != nil || replayed == nil {
		t.Fatalf("stream replay: %v (result %v, study %v)", err, replayed, study)
	}
	a, _ := json.Marshal(result.Cells)
	b, _ := json.Marshal(replayed.Cells)
	if !bytes.Equal(a, b) {
		t.Errorf("async replay diverged from sync run")
	}

	// Job listing with filters.
	jobs, err := c.Jobs(ctx, client.JobFilter{State: "done", Kind: "grid"})
	if err != nil || jobs.TotalItems != 1 || jobs.Jobs[0].ID != sub.JobID {
		t.Fatalf("filtered jobs listing: %v (%+v)", err, jobs)
	}

	// Studies: run, then fetch the retained report and the listing.
	studyRes, err := c.RunStudy(ctx, []byte(studyBody), nil)
	if err != nil {
		t.Fatalf("run study: %v", err)
	}
	fetched, err := c.StudyReport(ctx, studyRes.StudyHash)
	if err != nil {
		t.Fatalf("study report: %v", err)
	}
	ra, _ := json.Marshal(studyRes.Report)
	rb, _ := json.Marshal(fetched.Report)
	if !bytes.Equal(ra, rb) {
		t.Error("fetched report diverged from streamed report")
	}
	studies, err := c.Studies(ctx, client.Page{})
	if err != nil || studies.TotalItems != 1 {
		t.Fatalf("studies listing: %v (%+v)", err, studies)
	}

	// Metrics scrape through the client.
	metrics, err := c.Metrics(ctx)
	if err != nil || !strings.Contains(metrics, "physchedd_pool_tasks_total") {
		t.Fatalf("metrics: %v", err)
	}
}

// TestTypedClientErrors: non-2xx responses decode into *APIError with
// the stable code, and over-capacity rejections carry the parsed
// Retry-After hint.
func TestTypedClientErrors(t *testing.T) {
	pool := lab.NewPool(1)
	ts := testServerWith(t, serverConfig{
		Cache:       resultcache.NewMemory(),
		Pool:        pool,
		MaxCells:    100,
		MaxInflight: 1,
	})
	c := client.New(ts.URL)
	ctx := context.Background()

	_, err := c.Job(ctx, "deadbeefdeadbeef")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != client.CodeNotFound {
		t.Fatalf("unknown job error = %v, want 404/%s APIError", err, client.CodeNotFound)
	}

	_, err = c.RunSpec(ctx, []byte(`{not json`))
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeBadRequest {
		t.Fatalf("malformed spec error = %v, want %s", err, client.CodeBadRequest)
	}

	// Fill the single admission slot, then observe the typed 429.
	gate := make(chan struct{})
	started := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Run(t.Context(), 1, func(int) { close(started); <-gate })
	}()
	<-started
	sub, err := c.SubmitGrid(ctx, []byte(smallGridBody(810)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitGrid(ctx, []byte(smallGridBody(820)))
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != client.CodeOverCapacity {
		t.Fatalf("over-capacity error = %v, want 429/%s", err, client.CodeOverCapacity)
	}
	if apiErr.RetryAfter < 1 {
		t.Errorf("429 RetryAfter = %d, want ≥ 1 (parsed from the header)", apiErr.RetryAfter)
	}
	close(gate)
	<-blockerDone
	if _, err := c.WaitJob(ctx, sub.JobID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
