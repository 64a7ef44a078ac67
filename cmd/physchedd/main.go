// Command physchedd is the simulation service: it accepts declarative
// scenario and grid specs (internal/spec) over HTTP, executes them on one
// server-wide internal/lab pool — like the paper's master scheduler, a
// single arbiter that bounds what runs at once — streams NDJSON progress
// while a grid runs, and serves previously computed results from a
// content-addressed cache (internal/resultcache) by spec hash. The same
// spec file that drives `physchedsim FILE` can be POSTed here unchanged.
//
// Every request shares the pool: -parallel bounds the total number of
// simulation cells in flight across all requests, cells from concurrent
// grids are interleaved fairly, and -max-inflight rejects work beyond
// the admission bound with 429 instead of queueing it. Long campaigns
// submit asynchronously (?async=1) and attach to the stream later.
//
// Grids and studies share one submit path: the body is planned (fully
// validated; a grid's -max-cells cap is checked on the product of its
// axis lengths before any cell is enumerated), admitted, and then either
// streamed as NDJSON or, with ?async=1, started as a background job.
// Crash recovery re-plans journaled jobs through the same path.
// ?trace=1 records per-cell simulation traces for async grid jobs; it
// is a 400 without ?async=1 and on studies, which have no cell traces.
//
// With -state-dir, async jobs are journaled to disk: finished jobs stay
// queryable (and replay byte-identically) across restarts, and jobs that
// were running when the process died restart automatically through the
// content cache, re-simulating only cells the dead run had not finished.
//
// Every listing endpoint paginates (?page=, ?page_size=; defaults 1 and
// 20, page_size capped at 500); GET /v1/jobs also filters by ?state=
// and ?kind=. Every error response carries the envelope
// {"error": {"code": "...", "message": "..."}} with a stable code (see
// physched/client). GET /metrics exposes operational counters in the
// Prometheus text format.
//
// Endpoints:
//
//	GET  /healthz                 liveness probe
//	GET  /metrics                 Prometheus text metrics (pool, cache,
//	                              jobs, admission)
//	GET  /v1/policies             built-in scheduling policies
//	GET  /v1/workloads            built-in workload kinds
//	POST /v1/specs                run one spec; JSON result (cache-aware)
//	POST /v1/grids                run a grid spec; NDJSON progress stream
//	                              terminated by a result line
//	POST /v1/grids?async=1        submit a grid as a background job; 202
//	                              with the job id
//	POST /v1/studies              run a budgeted scenario search
//	                              (internal/opt study spec); NDJSON
//	                              progress terminated by the report, or
//	                              ?async=1 for a background job
//	GET  /v1/studies              list retained study reports (summaries)
//	GET  /v1/studies/{hash}       finished study report by study hash
//	GET  /v1/jobs                 list async jobs; ?state=, ?kind=,
//	                              ?page=, ?page_size=
//	GET  /v1/jobs/{id}            async job status and progress counters
//	DELETE /v1/jobs/{id}          cancel a running async job (409 when
//	                              already finished)
//	GET  /v1/jobs/{id}/stream     (re)attach to an async job's NDJSON
//	                              stream; replays from the beginning
//	GET  /v1/jobs/{id}/trace      finished ?trace=1 grid job's per-cell
//	                              simulation trace (NDJSON)
//	GET  /v1/results/{hash}       cached run result by spec hash
//	GET  /v1/aggregates/{hash}    cached replica aggregate by hash
//
// Observability: every request gets (or keeps) an X-Request-Id that is
// echoed, logged and attached to async jobs; GET /metrics adds latency
// histograms (HTTP by route×status, pool queue wait, cell execution,
// job end-to-end by kind) to the counters; structured JSON logs go to
// stderr; -debug-addr serves net/http/pprof on a separate listener so
// profiling is never exposed on the API port. On SIGTERM/SIGINT the
// server stops admitting executions (503), finishes in-flight requests
// and drains async jobs for up to -drain-timeout, then cancels
// stragglers (their journals resume them on next start) and exits with
// a shutdown summary.
//
// Usage:
//
//	physchedd [-addr :8080] [-debug-addr ADDR] [-cache-dir DIR]
//	          [-state-dir DIR] [-parallel N] [-max-cells N]
//	          [-max-inflight N] [-max-jobs N] [-max-trace-events N]
//	          [-drain-timeout D] [-log-level LEVEL]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"physched/internal/lab"
	"physched/internal/obs"
	"physched/internal/resultcache"
)

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("log-level must be debug, info, warn or error; got %q", s)
}

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		debugAddr      = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = profiling disabled)")
		cacheDir       = flag.String("cache-dir", "", "directory for the on-disk result cache (empty = memory only)")
		parallel       = flag.Int("parallel", 0, "max concurrent simulation cells across ALL requests (0 = GOMAXPROCS)")
		maxCells       = flag.Int("max-cells", 10_000, "reject grids with more cells than this (0 = unlimited)")
		maxInflight    = flag.Int("max-inflight", 64, "reject new grid/spec executions with 429 past this many in flight (0 = unlimited)")
		maxJobs        = flag.Int("max-jobs", 64, "retain at most this many async jobs (finished jobs evicted oldest-first)")
		maxTraceEvents = flag.Int("max-trace-events", defaultMaxTraceEvents, "cap on in-memory trace events per ?trace=1 job, split across its cells")
		stateDir       = flag.String("state-dir", "", "directory for persistent async-job journals (empty = in-memory jobs only)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work before cancelling it")
		logLevel       = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "physchedd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, obs.SystemClock, level)

	cache, err := resultcache.Open(*cacheDir)
	if err != nil {
		logger.Error("startup failed", "error", err.Error())
		os.Exit(1)
	}
	pool := lab.NewPool(*parallel)
	api, err := newServer(serverConfig{
		Cache:          cache,
		Pool:           pool,
		MaxCells:       *maxCells,
		MaxInflight:    *maxInflight,
		MaxJobs:        *maxJobs,
		MaxTraceEvents: *maxTraceEvents,
		StateDir:       *stateDir,
		Logger:         logger,
	})
	if err != nil {
		logger.Error("startup failed", "error", err.Error())
		os.Exit(1)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: api.routes(),
		// Simulations stream for as long as they run; only reads and
		// idle connections get fixed deadlines.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// pprof rides its own listener and mux: the API port stays free of
	// profiling endpoints, so exposing one is an explicit -debug-addr
	// decision rather than a side effect of importing net/http/pprof.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		// Exits when debugSrv.Close runs during shutdown.
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	// Exits when srv.Shutdown closes the listener; the error lands in errc.
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "debug_addr", *debugAddr,
		"cache_dir", *cacheDir, "state_dir", *stateDir,
		"pool_workers", pool.Workers(), "max_inflight", *maxInflight,
		"version", moduleVersion())

	select {
	case err := <-errc:
		logger.Error("listener failed", "error", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	// Shutdown sequence: stop admitting executions (503), close the
	// listener and wait for in-flight requests (streams included), then
	// drain async jobs — all bounded by one -drain-timeout budget.
	// Cancelled jobs stop between cells; with -state-dir their journals
	// resume them on the next start, re-simulating only uncached cells.
	logger.Info("shutdown: signal received; draining", "drain_timeout", (*drainTimeout).String())
	api.beginDrain()
	sdCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpErr := srv.Shutdown(sdCtx)
	drainErr := api.drain(sdCtx)
	pool.Close()
	if debugSrv != nil {
		debugSrv.Close()
	}

	byState, _ := api.jobs.counts()
	clean := httpErr == nil && drainErr == nil
	logger.Info("shutdown complete",
		"clean", clean,
		"jobs_done", byState[jobDone], "jobs_failed", byState[jobFailed],
		"jobs_cancelled", byState[jobCancelled], "jobs_running", byState[jobRunning],
		"pool_tasks_done", pool.Stats().TasksDone,
		"uptime_seconds", obs.SystemClock().Sub(api.started).Seconds())
	if !clean {
		os.Exit(1)
	}
}
