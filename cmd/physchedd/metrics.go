package main

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
)

// handleMetrics serves operational counters in the Prometheus text
// exposition format — hand-rolled, since the format is a few lines of
// printf and the repo takes no dependencies. Counters come from the
// instrumented layers underneath (lab.Pool.Stats, resultcache.Store.Stats,
// the job manager); this handler only formats snapshots.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	fam := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	ps := s.pool.Stats()
	fam("physchedd_pool_workers", "gauge", "Worker bound of the shared simulation pool.")
	fmt.Fprintf(&b, "physchedd_pool_workers %d\n", ps.Workers)
	fam("physchedd_pool_busy", "gauge", "Pool workers currently executing a simulation cell.")
	fmt.Fprintf(&b, "physchedd_pool_busy %d\n", ps.Busy)
	fam("physchedd_pool_utilization", "gauge", "Busy workers as a fraction of the worker bound.")
	util := 0.0
	if ps.Workers > 0 {
		util = float64(ps.Busy) / float64(ps.Workers)
	}
	fmt.Fprintf(&b, "physchedd_pool_utilization %g\n", util)
	fam("physchedd_pool_tasks_total", "counter", "Cells completed by the pool since start (cache-served cells included; subtract cache hits for simulations).")
	fmt.Fprintf(&b, "physchedd_pool_tasks_total %d\n", ps.TasksDone)

	// Cells per second over the process lifetime, from the injected clock
	// so tests can pin it. A lifetime average, not a window: scrapers
	// compute windowed rates from physchedd_pool_tasks_total.
	fam("physchedd_cells_per_second", "gauge", "Lifetime average of completed cells per second.")
	rate := 0.0
	if up := s.clock().Sub(s.started).Seconds(); up > 0 {
		rate = float64(ps.TasksDone) / up
	}
	fmt.Fprintf(&b, "physchedd_cells_per_second %g\n", rate)

	fam("physchedd_inflight", "gauge", "Executions currently holding an admission slot.")
	fmt.Fprintf(&b, "physchedd_inflight %d\n", s.inflightNow())

	cs := s.cache.Stats()
	fam("physchedd_cache_gets_total", "counter", "Result-cache lookups by kind and outcome.")
	fmt.Fprintf(&b, "physchedd_cache_gets_total{kind=\"result\",outcome=\"hit\"} %d\n", cs.Hits)
	fmt.Fprintf(&b, "physchedd_cache_gets_total{kind=\"result\",outcome=\"miss\"} %d\n", cs.Misses)
	fmt.Fprintf(&b, "physchedd_cache_gets_total{kind=\"aggregate\",outcome=\"hit\"} %d\n", cs.AggHits)
	fmt.Fprintf(&b, "physchedd_cache_gets_total{kind=\"aggregate\",outcome=\"miss\"} %d\n", cs.AggMisses)
	fam("physchedd_cache_puts_total", "counter", "Result-cache writes by kind.")
	fmt.Fprintf(&b, "physchedd_cache_puts_total{kind=\"result\"} %d\n", cs.Puts)
	fmt.Fprintf(&b, "physchedd_cache_puts_total{kind=\"aggregate\"} %d\n", cs.AggPuts)
	fam("physchedd_cache_corrupt_total", "counter", "On-disk result-cache entries that failed verification and read as misses.")
	fmt.Fprintf(&b, "physchedd_cache_corrupt_total %d\n", cs.Corrupt)

	byState, evicted := s.jobs.counts()
	fam("physchedd_jobs", "gauge", "Retained async jobs by lifecycle state.")
	// Zero-filled so dashboards see every series from the first scrape.
	for _, st := range []jobState{jobRunning, jobDone, jobFailed, jobCancelled} {
		fmt.Fprintf(&b, "physchedd_jobs{state=%q} %d\n", string(st), byState[st])
	}
	fam("physchedd_jobs_evicted_total", "counter", "Finished jobs dropped by -max-jobs retention.")
	fmt.Fprintf(&b, "physchedd_jobs_evicted_total %d\n", evicted)

	held, repEvicted := s.studies.stats()
	fam("physchedd_study_reports", "gauge", "Study reports retained in memory.")
	fmt.Fprintf(&b, "physchedd_study_reports %d\n", held)
	fam("physchedd_study_reports_evicted_total", "counter", "Study reports dropped by retention.")
	fmt.Fprintf(&b, "physchedd_study_reports_evicted_total %d\n", repEvicted)

	// Latency histograms (internal/obs): fixed buckets, cumulative
	// counts, fed from the injected clock.
	fam("physchedd_http_request_duration_seconds", "histogram", "HTTP request duration by route and status.")
	s.httpDur.WriteProm(&b, "physchedd_http_request_duration_seconds")
	fam("physchedd_pool_queue_wait_seconds", "histogram", "Time simulation tasks spent queued before a pool worker picked them up.")
	s.queueWait.WriteProm(&b, "physchedd_pool_queue_wait_seconds", "")
	fam("physchedd_cell_duration_seconds", "histogram", "Execution time of individual simulation cells on the pool.")
	s.cellDur.WriteProm(&b, "physchedd_cell_duration_seconds", "")
	fam("physchedd_job_duration_seconds", "histogram", "End-to-end async job latency (submit to terminal state) by kind.")
	s.jobDur.WriteProm(&b, "physchedd_job_duration_seconds")

	fam("physchedd_trace_jobs_total", "counter", "Async jobs submitted with ?trace=1.")
	fmt.Fprintf(&b, "physchedd_trace_jobs_total %d\n", s.traceJobs.Load())
	fam("physchedd_trace_events_total", "counter", "Simulation trace events captured across traced jobs.")
	fmt.Fprintf(&b, "physchedd_trace_events_total %d\n", s.traceEvents.Load())
	fam("physchedd_trace_events_dropped_total", "counter", "Trace events discarded by the -max-trace-events cap.")
	fmt.Fprintf(&b, "physchedd_trace_events_dropped_total %d\n", s.traceDropped.Load())

	fam("physchedd_build_info", "gauge", "Build metadata; the value is always 1.")
	fmt.Fprintf(&b, "physchedd_build_info{go_version=%q,module_version=%q} 1\n",
		runtime.Version(), moduleVersion())
	fam("physchedd_process_start_time_seconds", "gauge", "Unix time the process started, from the injected clock.")
	fmt.Fprintf(&b, "physchedd_process_start_time_seconds %d\n", s.started.Unix())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

// moduleVersion reports the main module's version from the embedded
// build info — "(devel)" for working-tree builds, the tag for released
// binaries. Build info can be absent in some test binaries; report
// "unknown" rather than omitting the series.
func moduleVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok || bi.Main.Version == "" {
		return "unknown"
	}
	return bi.Main.Version
}
