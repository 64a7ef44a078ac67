package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"physched/client"
	"physched/internal/lab"
	"physched/internal/obs"
	"physched/internal/resultcache"
	"physched/internal/sched"
	"physched/internal/spec"
	"physched/internal/trace"
	"physched/internal/workload"
)

// The wire format lives in physched/client — the same structs the typed
// client decodes are the structs this server encodes, so the two cannot
// drift. The aliases keep the handler code reading naturally.
type (
	specResponse    = client.SpecResponse
	progressLine    = client.ProgressLine
	cellResult      = client.CellResult
	aggregateResult = client.AggregateResult
	resultLine      = client.ResultLine
	errorLine       = client.ErrorLine
	studyLine       = client.StudyLine
	jobStatus       = client.JobStatus
	jobSubmitted    = client.JobSubmitted
	jobList         = client.JobList
	studySummary    = client.StudySummary
	studyList       = client.StudyList
)

// serverConfig wires the spec layer, the shared lab pool and the result
// cache behind the HTTP API.
type serverConfig struct {
	Cache resultStore
	// Pool is the server-wide execution pool: every request's simulation
	// cells run on it, so its worker bound caps concurrent simulations
	// across all in-flight requests. nil creates a GOMAXPROCS-wide pool.
	Pool *lab.Pool
	// MaxCells rejects grids with more cells than this (0 = unlimited).
	MaxCells int
	// MaxInflight rejects new executions with 429 once this many grid or
	// spec requests are already executing (0 = unlimited). Admission
	// control, not queueing: rejected clients retry, they do not pile up.
	MaxInflight int
	// MaxJobs bounds async-job retention (finished jobs are evicted
	// oldest-first past the cap). 0 means defaultMaxJobs.
	MaxJobs int
	// StateDir, when non-empty, persists async jobs (metadata plus the
	// replay stream) as one journal file each under this directory. On
	// startup finished jobs are reloaded — still listable, streamable and
	// byte-identical on replay — and jobs that were running when the
	// process died are restarted through the content cache, re-simulating
	// only uncached cells. Empty disables persistence.
	StateDir string
	// Clock supplies every service-layer timestamp: job lifecycle,
	// request durations, queue waits, log records. nil wires
	// obs.SystemClock — the module's single audited real-clock seam;
	// tests inject a fake for deterministic lifecycle, log and
	// histogram assertions.
	Clock func() time.Time
	// Logger receives structured JSON log lines (access log, job
	// lifecycle, shutdown). nil discards — the default for in-process
	// test servers.
	Logger *slog.Logger
	// MaxTraceEvents caps the total in-memory trace events per traced
	// job (?trace=1), split evenly across the job's cells. 0 means
	// defaultMaxTraceEvents; capped cells report dropped counts in
	// their trace headers.
	MaxTraceEvents int
}

// resultStore is what the server needs of its result cache: a
// *resultcache.Store, or a test wrapper around one that gauges the cells
// in flight.
type resultStore interface {
	lab.ResultCache
	GetAggregate(key string) (lab.Aggregate, bool)
	PutAggregate(key string, a lab.Aggregate)
	Stats() resultcache.Stats
}

const defaultMaxJobs = 64

// defaultMaxTraceEvents bounds the in-memory trace buffer of one traced
// job. At ~100 bytes an encoded event this is ~10 MB per traced job
// worst case, bounded further by -max-jobs retention.
const defaultMaxTraceEvents = 100_000

type server struct {
	cache          resultStore
	pool           *lab.Pool
	maxCells       int
	maxInflight    int
	maxTraceEvents int
	clock          func() time.Time
	logger         *slog.Logger
	started        time.Time
	jobs           *jobManager
	studies        *reportStore
	journal        *jobJournal
	// jobsWG joins every async-job goroutine; crash() (tests) and
	// recovery correctness depend on knowing when they are gone.
	jobsWG sync.WaitGroup

	// Latency histograms, all fed from the injected clock. httpDur is
	// labelled route×status (bounded by the route table); jobDur by job
	// kind. queueWait and cellDur hang off the pool's timing hooks.
	httpDur   *obs.HistogramVec
	queueWait *obs.Histogram
	cellDur   *obs.Histogram
	jobDur    *obs.HistogramVec

	// Trace-export counters for /metrics.
	traceJobs    atomic.Uint64 // jobs submitted with ?trace=1
	traceEvents  atomic.Uint64 // events captured across traced jobs
	traceDropped atomic.Uint64 // events discarded by the per-job cap

	mu       sync.Mutex
	inflight int
	draining bool // shutdown in progress: no new executions admitted
}

// maxStudyReports bounds in-memory study-report retention (oldest-first
// eviction; an evicted report is rebuilt at cache speed by re-POSTing).
const maxStudyReports = 256

func newServer(cfg serverConfig) (*server, error) {
	if cfg.Pool == nil {
		cfg.Pool = lab.NewPool(0)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = defaultMaxJobs
	}
	if cfg.Clock == nil {
		// Production wall time enters through the obs seam — the single
		// audited real-clock site in the module; everything downstream
		// (timestamps, histograms, log records) receives this clock.
		cfg.Clock = obs.SystemClock
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.MaxTraceEvents <= 0 {
		cfg.MaxTraceEvents = defaultMaxTraceEvents
	}
	s := &server{
		cache:          cfg.Cache,
		pool:           cfg.Pool,
		maxCells:       cfg.MaxCells,
		maxInflight:    cfg.MaxInflight,
		maxTraceEvents: cfg.MaxTraceEvents,
		clock:          cfg.Clock,
		logger:         cfg.Logger,
		started:        cfg.Clock(),
		jobs:           newJobManager(cfg.MaxJobs),
		studies:        newReportStore(maxStudyReports),
		httpDur:        obs.NewHistogramVec([]string{"route", "status"}, obs.HTTPBuckets),
		queueWait:      obs.NewHistogram(obs.QueueWaitBuckets),
		cellDur:        obs.NewHistogram(obs.CellBuckets),
		jobDur:         obs.NewHistogramVec([]string{"kind"}, obs.JobBuckets),
	}
	// The pool never reads a clock itself (it sits inside the determinism
	// boundary); its timing hooks receive nanos derived from the server's
	// injected clock, so queue-wait and cell-duration histograms are
	// deterministic under a test fake.
	s.pool.SetHooks(&lab.PoolHooks{
		Now:  obs.NowNanos(s.clock),
		Wait: func(ns int64) { s.queueWait.Observe(float64(ns) / 1e9) },
		Run:  func(ns int64) { s.cellDur.Observe(float64(ns) / 1e9) },
	})
	if cfg.StateDir != "" {
		j, err := newJobJournal(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.jobs.onEvict = j.remove
	}
	if err := s.recoverJobs(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/specs", s.handleSpec)
	mux.HandleFunc("POST /v1/grids", s.handleSubmit("grid"))
	mux.HandleFunc("POST /v1/studies", s.handleSubmit("study"))
	mux.HandleFunc("GET /v1/studies", s.handleStudyList)
	mux.HandleFunc("GET /v1/studies/{hash}", s.handleStudyReport)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /v1/aggregates/{hash}", s.handleAggregate)
	// Every handler — including error envelopes — sits behind the
	// request middleware: X-Request-Id in/out, one access-log line per
	// request, and the route×status duration histogram.
	return obs.Middleware(mux, obs.MiddlewareConfig{
		Clock:   s.clock,
		Logger:  s.logger,
		Observe: func(route, status string, sec float64) { s.httpDur.With(route, status).Observe(sec) },
		Route:   func(r *http.Request) string { _, p := mux.Handler(r); return p },
	})
}

// admit reserves one execution slot; false means the request must be
// rejected — the server is at its -max-inflight bound (429) or draining
// for shutdown (503). rejectNotAdmitted tells the two apart.
func (s *server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.maxInflight > 0 && s.inflight >= s.maxInflight {
		return false
	}
	s.inflight++
	return true
}

// release returns an execution slot taken by admit.
func (s *server) release() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// inflightNow snapshots the admission gauge for /metrics.
func (s *server) inflightNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// writeJSON writes v as one JSON document, reporting a failed write (the
// client is gone; there is nothing further to send it).
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// errorCode maps an HTTP status onto the stable machine-readable
// vocabulary of client.Code*; every handler funnels its failures through
// writeError, so the status↔code pairing is uniform across the API.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return client.CodeBadRequest
	case http.StatusNotFound:
		return client.CodeNotFound
	case http.StatusConflict:
		return client.CodeConflict
	case http.StatusUnprocessableEntity:
		return client.CodeInvalidSpec
	case http.StatusTooManyRequests:
		return client.CodeOverCapacity
	case http.StatusServiceUnavailable:
		return client.CodeUnavailable
	case http.StatusRequestEntityTooLarge:
		return client.CodeTooLarge
	}
	return "error"
}

// writeError reports err in the structured envelope every error response
// uses: {"error": {"code": "...", "message": "..."}}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, client.ErrorEnvelope{Error: client.ErrorDetail{
		Code:    errorCode(status),
		Message: err.Error(),
	}})
}

// maxRequestBody caps every POST body. Specs, grids and studies are a
// few kilobytes; the cap only bounds what one request can make the
// server buffer.
const maxRequestBody = 1 << 20

// readBody reads the whole request body, answering 413 when it exceeds
// maxRequestBody and 400 when it cannot be read; ok is false once an
// error response has been written.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return body, true
}

// retryAfterSeconds is the Retry-After hint sent with 429 rejections.
// Admission rejections clear as soon as any in-flight execution
// finishes, so a short fixed hint beats a guess derived from queue
// depth (there is no queue — that is the point of admission control).
const retryAfterSeconds = 1

// rejectNotAdmitted explains a refused admit: 503
// unavailable while the server drains for shutdown (terminal — clients
// should fail over, not retry here), otherwise the -max-inflight 429
// with a machine-readable over_capacity code and a Retry-After header,
// so well-behaved clients can back off without parsing the message.
func (s *server) rejectNotAdmitted(w http.ResponseWriter) {
	s.mu.Lock()
	draining, limit := s.draining, s.maxInflight
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable,
			errors.New("server is draining for shutdown; no new executions admitted"))
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("server is executing %d requests, the -max-inflight limit", limit))
}

// beginDrain stops admitting new executions. Requests already running —
// synchronous streams and async jobs — continue; drain waits for the
// async side.
func (s *server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// drain waits for every async-job goroutine to finish, bounded by ctx:
// on expiry the remaining jobs are cancelled through their contexts
// (cancellation stops a run between cells; started cells complete and
// keep their cached results) and drain waits for that to land. The
// returned error is ctx's when the bound was hit.
func (s *server) drain(ctx context.Context) error {
	done := make(chan struct{})
	// Joined via the <-done below on both branches.
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, j := range s.jobs.snapshot() {
			j.requestCancel()
		}
		<-done
		return ctx.Err()
	}
}

// Pagination bounds. A request without page parameters gets the first
// defaultPageSize items, so an unbounded listing can no longer be
// requested by accident; maxPageSize caps the deliberate form.
const (
	defaultPageSize = 20
	maxPageSize     = 500
)

// boolParam reads a query flag with the API's truthiness convention:
// present and not "0"/"false" means on (?async=1, ?trace=1).
func boolParam(q url.Values, name string) bool {
	v := q.Get(name)
	return v != "" && v != "0" && v != "false"
}

// parsePage reads page/page_size query parameters with defaults,
// rejecting non-positive or oversized values.
func parsePage(q url.Values) (page, size int, err error) {
	page, size = 1, defaultPageSize
	if v := q.Get("page"); v != "" {
		page, err = strconv.Atoi(v)
		if err != nil || page < 1 {
			return 0, 0, fmt.Errorf("page must be a positive integer, got %q", v)
		}
	}
	if v := q.Get("page_size"); v != "" {
		size, err = strconv.Atoi(v)
		if err != nil || size < 1 || size > maxPageSize {
			return 0, 0, fmt.Errorf("page_size must be in [1, %d], got %q", maxPageSize, v)
		}
	}
	return page, size, nil
}

// paginate slices one 1-based page out of items. Pages past the end are
// empty, not errors — a client walking pages stops at the first empty
// one without racing the total. The returned slice is never nil, so
// listings marshal as [] rather than null.
func paginate[T any](items []T, page, size int) ([]T, client.PageInfo) {
	info := client.PageInfo{
		Page:       page,
		PageSize:   size,
		TotalItems: len(items),
		TotalPages: (len(items) + size - 1) / size,
	}
	out := []T{}
	if lo := (page - 1) * size; lo < len(items) {
		out = items[lo:min(lo+size, len(items))]
	}
	return out, info
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	page, size, err := parsePage(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	names, info := paginate(sched.Names(), page, size)
	writeJSON(w, http.StatusOK, client.PolicyList{Policies: names, PageInfo: info})
}

func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	page, size, err := parsePage(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	names, info := paginate(workload.Names(), page, size)
	writeJSON(w, http.StatusOK, client.WorkloadList{Workloads: names, PageInfo: info})
}

// handleSpec runs one declarative spec on the shared pool, serving and
// feeding the content-addressed cache. Hit and miss responses are built
// from the same stored value, so apart from from_cache they are
// byte-identical.
func (s *server) handleSpec(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	sp, hash, status, err := planSpec(body)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if res, ok := s.cache.Get(hash); ok {
		writeJSON(w, http.StatusOK, specResponse{Hash: hash, FromCache: true, Result: res})
		return
	}
	sc, err := sp.Scenario()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if !s.admit() {
		s.rejectNotAdmitted(w)
		return
	}
	defer s.release()
	var res lab.Result
	var runErr error
	ran := false
	err = s.pool.Run(r.Context(), 1, func(int) { ran = true; res, runErr = lab.RunE(sc) })
	if !ran {
		// Cancelled before the run started, or the pool is shutting
		// down; say so rather than sending an empty 200.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("spec not executed: %w", err))
		return
	}
	// A cancellation that landed mid-run (err != nil, ran == true) still
	// produced a complete result: cache it and respond — if the client
	// really is gone the write simply fails.
	if runErr != nil {
		writeError(w, http.StatusUnprocessableEntity, runErr)
		return
	}
	// Responding with the stored copy keeps hit and miss bodies
	// identical.
	stored := res.Stored()
	s.cache.Put(hash, stored)
	writeJSON(w, http.StatusOK, specResponse{Hash: hash, Result: stored})
}

// planSpec parses and validates one spec request body, returning its
// content hash, or the HTTP status and error to reject it with.
func planSpec(body []byte) (spec.Spec, string, int, error) {
	sp, err := spec.Parse(bytes.NewReader(body))
	if err != nil {
		return spec.Spec{}, "", http.StatusBadRequest, err
	}
	hash, err := sp.Hash() // validates
	if err != nil {
		return spec.Spec{}, "", http.StatusUnprocessableEntity, err
	}
	return sp, hash, 0, nil
}

// plan is a fully validated submission, ready to run: the content hash
// of the submitted document, the progress total its job starts with, and
// run, which executes it on the shared pool under ctx, calling emit
// sequentially with every NDJSON line — progress lines, then exactly one
// result, study or error line. run returns the rendered simulation trace
// of a traced grid and nil otherwise.
type plan struct {
	hash  string
	total int
	run   func(ctx context.Context, emit func(any) error) (trace []byte)
}

// planSubmission turns a submission — its kind ("grid" or "study"), the
// request body and the ?trace=1 flag — into a plan, or the HTTP status
// and error to reject it with. The submit handler and crash recovery
// both plan through here, so a resumed job is planned exactly like the
// original submission.
func (s *server) planSubmission(kind string, body []byte, traced bool) (*plan, int, error) {
	switch kind {
	case "grid":
		g, status, err := s.planGrid(bytes.NewReader(body))
		if err != nil {
			return nil, status, err
		}
		if traced {
			g.enableTrace(s.maxTraceEvents)
		}
		return &plan{hash: g.hash, total: len(g.cells), run: func(ctx context.Context, emit func(any) error) []byte {
			s.runGrid(ctx, g, emit)
			return s.renderTrace(g)
		}}, 0, nil
	case "study":
		if traced {
			return nil, http.StatusBadRequest,
				errors.New("trace=1 applies to grid jobs only: a study has no per-cell simulation trace")
		}
		prep, status, err := s.planStudy(bytes.NewReader(body))
		if err != nil {
			return nil, status, err
		}
		return &plan{hash: prep.Hash, total: prep.Study.Search.BudgetCells, run: func(ctx context.Context, emit func(any) error) []byte {
			s.runStudy(ctx, prep, emit)
			return nil
		}}, 0, nil
	}
	return nil, http.StatusBadRequest, fmt.Errorf("unknown submission kind %q", kind)
}

// gridPlan is a fully validated grid request: compiled, size-checked, and
// with every cell and aggregate content key resolved upfront, so nothing
// can fail between the first simulated cell and the final result line.
type gridPlan struct {
	grid           lab.Grid
	hash           string
	cells          []lab.Cell
	keys           []string // one per cell, indexed like RunSet.Results
	aggKeys        []string // (variant*nLoads + load), nil without a seed axis
	nLoads, nSeeds int
	// recs holds one capped trace recorder per cell when the grid was
	// submitted with ?trace=1; nil otherwise. Traced cells bypass the
	// result cache in both directions (see lab.Options.Trace).
	recs []*trace.Recorder
}

// cellIndex maps grid coordinates to the flat cell/key index. Execute
// enumerates cells in the same coordinate order, so this is exact.
func (p *gridPlan) cellIndex(c lab.Cell) int {
	return (c.Variant*p.nLoads+c.LoadIdx)*p.nSeeds + c.SeedIdx
}

// enableTrace attaches one recorder per cell, splitting the per-job
// event budget evenly across cells (at least one event each, so every
// cell's trace proves the cell ran even when heavily capped).
func (p *gridPlan) enableTrace(maxEvents int) {
	per := maxEvents / len(p.cells)
	if per < 1 {
		per = 1
	}
	p.recs = make([]*trace.Recorder, len(p.cells))
	for i := range p.recs {
		p.recs[i] = trace.New(per, nil)
	}
}

// traceFor is the lab.Options.Trace callback: nil for untraced plans.
func (p *gridPlan) traceFor(c lab.Cell) *trace.Recorder {
	if p.recs == nil {
		return nil
	}
	return p.recs[p.cellIndex(c)]
}

// planGrid parses and fully validates one grid request body, returning
// the HTTP status to report on failure. Cell-key hashing errors fail the
// whole request here, before any cell runs — a key that silently failed
// would disable the result cache for that cell.
func (s *server) planGrid(body io.Reader) (*gridPlan, int, error) {
	g, err := spec.ParseGrid(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	gridHash, err := g.Hash() // validates
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	// The cap is checked on the axis lengths before Compile and Cells: a
	// few-KB body can declare a billion-cell product.
	if n := cellCount(g); s.maxCells > 0 && n > s.maxCells {
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("grid has %d cells, limit is %d", n, s.maxCells)
	}
	lg, err := g.Compile()
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	cells := lg.Cells()
	p := &gridPlan{
		grid:   lg,
		hash:   gridHash,
		cells:  cells,
		nLoads: max(len(lg.Loads), 1),
		nSeeds: max(len(lg.Seeds), 1),
	}
	// Hash every cell spec once upfront; Options.Keys and the result line
	// both read this slice (hashing re-validates the spec, so doing it per
	// lookup would double the work on large grids).
	p.keys = make([]string, len(cells))
	for i, c := range cells {
		key, err := g.CellSpec(c).Hash()
		if err != nil {
			return nil, http.StatusUnprocessableEntity,
				fmt.Errorf("cell %d (variant %q, load %v, seed %d): %w",
					i, c.Label, c.Scenario.Load, c.Scenario.Seed, err)
		}
		p.keys[i] = key
	}
	if len(lg.Seeds) > 1 {
		nVariants := max(len(lg.Variants), 1)
		p.aggKeys = make([]string, nVariants*p.nLoads)
		for vi := 0; vi < nVariants; vi++ {
			for li := 0; li < p.nLoads; li++ {
				key, err := g.AggregateKey(vi, li)
				if err != nil {
					return nil, http.StatusUnprocessableEntity,
						fmt.Errorf("aggregate (variant %d, load index %d): %w", vi, li, err)
				}
				p.aggKeys[vi*p.nLoads+li] = key
			}
		}
	}
	return p, 0, nil
}

// cellCount is the number of cells g enumerates — the product of its
// variant, load and seed axis lengths, an empty axis counting once —
// saturating at math.MaxInt instead of overflowing.
func cellCount(g spec.Grid) int {
	n := 1
	for _, axis := range []int{len(g.Variants), len(g.Loads), len(g.Seeds)} {
		axis = max(axis, 1)
		if n > math.MaxInt/axis {
			return math.MaxInt
		}
		n *= axis
	}
	return n
}

// streamExec is the shared shape of a streamed execution (grids and
// studies): exec runs in a goroutine depositing progress lines into a
// buffered channel — sized so the executor's serialised progress
// callback never blocks a pool worker on a slow stream consumer — while
// emit is called sequentially with every line, then exactly one terminal
// or error line. A failed emit (disconnected client) stops further
// writes without aborting the execution — cancelling is the context's
// job. terminal always runs (its side effects — caching aggregates,
// retaining reports — must not depend on the client still listening);
// only the write is skipped.
func streamExec[T any](buf int, exec func(progress func(progressLine)) (T, error), terminal func(T) any, emit func(any) error) {
	progress := make(chan progressLine, buf)
	type outcome struct {
		val T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := exec(func(p progressLine) { progress <- p })
		close(progress)
		done <- outcome{v, err}
	}()

	var emitErr error
	for line := range progress {
		if emitErr == nil {
			emitErr = emit(line)
		}
	}
	out := <-done
	if out.err != nil {
		// The request was cancelled or the server is shutting down; the
		// line documents the abort for partial readers.
		if emitErr == nil {
			emit(errorLine{Type: "error", Error: out.err.Error()})
		}
		return
	}
	line := terminal(out.val)
	if emitErr == nil {
		emit(line)
	}
}

// runGrid executes the plan on the server's shared pool under ctx,
// calling emit sequentially with every NDJSON line: progress lines, then
// exactly one result or error line. Cell results reach the cache even
// when the client disconnects mid-stream.
func (s *server) runGrid(ctx context.Context, p *gridPlan, emit func(any) error) {
	streamExec(len(p.cells), func(progress func(progressLine)) (*lab.RunSet, error) {
		return p.grid.Execute(lab.Options{
			Pool:    s.pool,
			Context: ctx,
			Cache:   s.cache,
			Keys:    func(c lab.Cell) (string, bool) { return p.keys[p.cellIndex(c)], true },
			Trace:   p.traceFor,
			Progress: func(u lab.ProgressUpdate) {
				progress(progressLine{
					Type: "progress", Done: u.Done, Total: u.Total,
					Label: u.Label, Load: u.Load, Seed: u.Seed,
					Overloaded: u.Overloaded, FromCache: u.FromCache,
				})
			},
		})
	}, func(rs *lab.RunSet) any { return s.resultLineFor(p, rs) }, emit)
}

// resultLineFor assembles the final stream line and saves replica
// aggregates to the cache. Aggregate keys were validated by planGrid.
func (s *server) resultLineFor(p *gridPlan, rs *lab.RunSet) resultLine {
	line := resultLine{Type: "result", GridHash: p.hash, CacheHits: rs.CacheHits}
	for i, res := range rs.Results {
		line.Cells = append(line.Cells, cellResult{Hash: p.keys[i], Label: rs.Cells[i].Label, Result: res})
	}
	if len(rs.Seeds) > 1 {
		for vi, label := range rs.Labels {
			for li, load := range rs.Loads {
				agg := rs.Aggregate(vi, li)
				hash := p.aggKeys[vi*p.nLoads+li]
				s.cache.PutAggregate(hash, agg)
				line.Aggregates = append(line.Aggregates, aggregateResult{
					Hash: hash, Label: label, Load: load, Aggregate: agg,
				})
			}
		}
	}
	return line
}

// handleSubmit serves POST /v1/grids and POST /v1/studies, one kind
// each: it reads the body, plans it, takes an admission slot, and then
// either starts a background job (?async=1: 202 and a job id, see
// jobs.go) or streams NDJSON progress under the request context,
// terminated by the result or study line. Every cell is served from —
// and saved to — the content-addressed cache, so a re-POST re-simulates
// nothing.
func (s *server) handleSubmit(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		async, traced := boolParam(r.URL.Query(), "async"), boolParam(r.URL.Query(), "trace")
		if traced && !async {
			writeError(w, http.StatusBadRequest,
				errors.New("trace=1 requires async=1: traces attach to jobs and are fetched from GET /v1/jobs/{id}/trace"))
			return
		}
		p, status, err := s.planSubmission(kind, body, traced)
		if err != nil {
			writeError(w, status, err)
			return
		}
		if !s.admit() {
			s.rejectNotAdmitted(w)
			return
		}
		if async {
			if traced {
				s.traceJobs.Add(1)
			}
			// startJob releases the admission slot when execution finishes.
			j := s.startJob(journalMeta{
				Kind: kind, Hash: p.hash, Total: p.total, Request: body,
				RequestID: obs.RequestIDFrom(r.Context()), Trace: traced,
			}, p)
			w.Header().Set("Location", "/v1/jobs/"+j.id)
			writeJSON(w, http.StatusAccepted, j.submitted())
			return
		}
		defer s.release()

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		p.run(r.Context(), func(v any) error {
			if err := enc.Encode(v); err != nil {
				return err // dead connection: stop the stream
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	}
}

// handleResult serves a cached run result by its spec hash.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok := s.cache.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no cached result for this hash"))
		return
	}
	writeJSON(w, http.StatusOK, specResponse{Hash: hash, FromCache: true, Result: res})
}

// handleAggregate serves a cached replica aggregate by its hash.
func (s *server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	agg, ok := s.cache.GetAggregate(hash)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no cached aggregate for this hash"))
		return
	}
	writeJSON(w, http.StatusOK, client.AggregateResponse{Hash: hash, Aggregate: agg})
}
