// Command physchedsmoke is the end-to-end smoke check CI runs against a
// live physchedd: it waits for the service to come up, drives one async
// grid through the typed physched/client package (submit → wait →
// stream), round-trips an X-Request-Id, fetches and validates a ?trace=1
// job's event log, and scrapes /metrics, failing on a non-200, a missing
// counter family or an empty latency histogram. Exit status 0 means the
// deployed binary serves its whole async path — observability included —
// not just /healthz.
//
// Usage:
//
//	physchedsmoke [-server http://localhost:8080] [-timeout 2m]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"physched/client"
)

// smokeGrid is a small 2×2×2 grid: large enough to exercise progress
// streaming, aggregates and the cache, small enough for a CI minute.
const smokeGrid = `{
	"base": {
		"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
		"policy": {"name": "outoforder"},
		"load_jobs_per_hour": 1.0,
		"seed": 5,
		"warmup_jobs": 10,
		"measure_jobs": 40
	},
	"variants": [
		{"label": "ooo"},
		{"label": "farm", "policy": {"name": "farm"}}
	],
	"loads": [0.8, 1.1],
	"seeds": [1, 2]
}`

// requiredFamilies must all appear in one /metrics scrape; a missing
// family means an instrumentation layer silently fell off.
var requiredFamilies = []string{
	"physchedd_pool_workers",
	"physchedd_pool_busy",
	"physchedd_pool_utilization",
	"physchedd_pool_tasks_total",
	"physchedd_cells_per_second",
	"physchedd_inflight",
	"physchedd_cache_gets_total",
	"physchedd_cache_puts_total",
	"physchedd_cache_corrupt_total",
	"physchedd_jobs",
	"physchedd_jobs_evicted_total",
	"physchedd_trace_jobs_total",
	"physchedd_build_info",
	"physchedd_process_start_time_seconds",
}

// requiredHistograms must not only exist but have observed something by
// the time the smoke grid has run: a present-but-empty histogram means
// the observation plumbing (middleware, pool hooks, job seal) fell off
// while the family registration survived.
var requiredHistograms = []string{
	"physchedd_http_request_duration_seconds",
	"physchedd_pool_queue_wait_seconds",
	"physchedd_cell_duration_seconds",
	"physchedd_job_duration_seconds",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("physchedsmoke: ")
	var (
		server  = flag.String("server", "http://localhost:8080", "physchedd base URL")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall deadline for the whole smoke run")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*server)

	// The service may still be binding its listener when CI reaches us.
	for {
		if err := c.Health(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			log.Fatalf("service never became healthy: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	log.Printf("healthy: %s", *server)

	// Correlation: a supplied X-Request-Id must come back verbatim, and
	// an omitted one must come back generated — either way the response
	// alone is enough to grep the service's logs.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, *server+"/healthz", nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "smoke-run")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("request-id probe failed: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "smoke-run" {
		log.Fatalf("X-Request-Id not echoed: got %q, want smoke-run", got)
	}
	resp, err = http.Get(*server + "/healthz")
	if err != nil {
		log.Fatalf("request-id probe failed: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		log.Fatal("no X-Request-Id generated for a request that omitted one")
	}
	log.Print("request-id round-trip OK")

	sub, err := c.SubmitGrid(ctx, []byte(smokeGrid))
	if err != nil {
		log.Fatalf("async submit failed: %v", err)
	}
	if sub.JobID == "" || sub.Hash == "" {
		log.Fatalf("bad submission document: %+v", sub)
	}
	log.Printf("submitted job %s (grid %.12s…)", sub.JobID, sub.Hash)

	st, err := c.WaitJob(ctx, sub.JobID, 100*time.Millisecond)
	if err != nil {
		log.Fatalf("waiting on job %s: %v", sub.JobID, err)
	}
	if st.State != "done" {
		log.Fatalf("job %s finished in state %q: %s", sub.JobID, st.State, st.Error)
	}
	log.Printf("job done: %d/%d cells (%d from cache)", st.Done, st.Total, st.CacheHits)

	progress := 0
	result, _, err := c.StreamJob(ctx, sub.JobID, func(client.ProgressLine) { progress++ })
	if err != nil {
		log.Fatalf("replaying job stream: %v", err)
	}
	if result == nil || len(result.Cells) == 0 {
		log.Fatalf("job stream replayed no result cells (progress lines: %d)", progress)
	}
	if result.GridHash != sub.Hash {
		log.Fatalf("result grid hash %q, submission hash %q", result.GridHash, sub.Hash)
	}
	log.Printf("stream replayed: %d progress lines, %d cells", progress, len(result.Cells))

	// The listing sees the finished job through the state filter.
	jobs, err := c.Jobs(ctx, client.JobFilter{State: "done", Kind: "grid"})
	if err != nil {
		log.Fatalf("jobs listing failed: %v", err)
	}
	found := false
	for _, j := range jobs.Jobs {
		if j.ID == sub.JobID {
			found = true
		}
	}
	if !found {
		log.Fatalf("finished job %s missing from ?state=done&kind=grid listing (%d jobs)", sub.JobID, len(jobs.Jobs))
	}

	// Trace export: a second grid submitted with ?trace=1 serves a
	// structurally valid per-cell event log once it finishes. The grid
	// differs by seed so the traced cells are not trivially cached.
	traced, err := c.SubmitGridTraced(ctx, []byte(strings.Replace(smokeGrid, `"seed": 5`, `"seed": 6`, 1)))
	if err != nil {
		log.Fatalf("traced submit failed: %v", err)
	}
	if st, err := c.WaitJob(ctx, traced.JobID, 100*time.Millisecond); err != nil || st.State != "done" {
		log.Fatalf("traced job %s: %v (state %+v)", traced.JobID, err, st)
	}
	cells, err := c.JobTrace(ctx, traced.JobID)
	if err != nil {
		log.Fatalf("fetching trace of job %s: %v", traced.JobID, err)
	}
	events := 0
	for i, cell := range cells {
		if cell.Header.Hash == "" || cell.Header.Index != i {
			log.Fatalf("malformed trace header %d: %+v", i, cell.Header)
		}
		if len(cell.Events) != cell.Header.Events {
			log.Fatalf("trace cell %d: %d event lines, header says %d", i, len(cell.Events), cell.Header.Events)
		}
		events += len(cell.Events)
	}
	if len(cells) == 0 || events == 0 {
		log.Fatalf("trace is empty: %d cells, %d events", len(cells), events)
	}
	log.Printf("trace OK: %d cells, %d events", len(cells), events)

	metrics, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("metrics scrape failed: %v", err)
	}
	var missing []string
	for _, fam := range requiredFamilies {
		if !strings.Contains(metrics, "# TYPE "+fam+" ") {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		log.Fatalf("metrics scrape is missing families: %s", strings.Join(missing, ", "))
	}
	pm, err := client.ParseMetrics(metrics)
	if err != nil {
		log.Fatalf("metrics exposition does not parse: %v", err)
	}
	for _, name := range requiredHistograms {
		h, ok := pm.HistogramAt(name, nil)
		if !ok {
			log.Fatalf("latency histogram %s missing", name)
		}
		if h.Count == 0 {
			log.Fatalf("latency histogram %s observed nothing", name)
		}
	}
	log.Printf("metrics: all %d required families present, %d histograms non-empty",
		len(requiredFamilies), len(requiredHistograms))
	fmt.Println("smoke OK")
}
