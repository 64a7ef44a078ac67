// Package client is the typed Go client for the physchedd HTTP API and
// the single source of truth for its wire format: cmd/physchedd builds
// its responses from the exported types below (the daemon aliases them),
// so the structs a caller decodes into are — by construction, not by
// convention — the structs the server encodes from. The command-line
// tools use this package themselves (`physchedsim -server`,
// cmd/physchedsmoke), which keeps the API surface honest: an endpoint
// the client cannot drive is an endpoint that does not really exist.
//
// Field names are the pinned snake_case wire format (golden-tested in
// cmd/physchedd); changing a tag here is a wire-format change and must
// update the goldens in the same commit.
package client

import (
	"fmt"
	"time"

	"physched/internal/lab"
	"physched/internal/opt"
)

// ErrorDetail is the machine-readable payload of every non-2xx response:
// a stable code (see the Code* constants) plus a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every error response the service sends:
// {"error": {"code": "...", "message": "..."}}.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// Stable error codes. Every handler maps its failures onto this
// vocabulary; clients branch on Code, never on message text.
const (
	CodeBadRequest   = "bad_request"   // malformed body or query parameters
	CodeInvalidSpec  = "invalid_spec"  // well-formed but semantically invalid spec
	CodeNotFound     = "not_found"     // unknown hash, job id or route
	CodeConflict     = "conflict"      // operation races a finished lifecycle
	CodeOverCapacity = "over_capacity" // -max-inflight admission rejection; retry later
	CodeUnavailable  = "unavailable"   // server shutting down or pool closed
	CodeTooLarge     = "too_large"     // request body over the server's size cap
)

// APIError is the error a Client method returns for a non-2xx response.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable code (Code* constants)
	Message string // human-readable detail
	// RetryAfter is the parsed Retry-After header in seconds (0 when the
	// server sent none); over_capacity rejections always carry one.
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("physchedd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// SpecResponse is the body of POST /v1/specs and GET /v1/results/{hash}.
type SpecResponse struct {
	Hash      string     `json:"hash"`
	FromCache bool       `json:"from_cache"`
	Result    lab.Result `json:"result"`
}

// AggregateResponse is the body of GET /v1/aggregates/{hash}.
type AggregateResponse struct {
	Hash      string        `json:"hash"`
	Aggregate lab.Aggregate `json:"aggregate"`
}

// ProgressLine is one NDJSON progress event of a grid or study stream.
type ProgressLine struct {
	Type       string  `json:"type"` // "progress"
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Label      string  `json:"label,omitempty"`
	Load       float64 `json:"load_jobs_per_hour"`
	Seed       int64   `json:"seed"`
	Overloaded bool    `json:"overloaded"`
	FromCache  bool    `json:"from_cache"`
}

// CellResult is one cell of a grid's terminal result line.
type CellResult struct {
	Hash   string     `json:"hash"`
	Label  string     `json:"label,omitempty"`
	Result lab.Result `json:"result"`
}

// AggregateResult is one (variant, load) replica aggregate of a grid's
// terminal result line, present when the grid has a seed axis.
type AggregateResult struct {
	Hash      string        `json:"hash"`
	Label     string        `json:"label,omitempty"`
	Load      float64       `json:"load_jobs_per_hour"`
	Aggregate lab.Aggregate `json:"aggregate"`
}

// ResultLine terminates a grid stream.
type ResultLine struct {
	Type       string            `json:"type"` // "result"
	GridHash   string            `json:"grid_hash"`
	CacheHits  int               `json:"cache_hits"`
	Cells      []CellResult      `json:"cells"`
	Aggregates []AggregateResult `json:"aggregates,omitempty"`
}

// StudyLine terminates a study stream and is the body of
// GET /v1/studies/{hash}.
type StudyLine struct {
	Type      string      `json:"type"` // "study"
	StudyHash string      `json:"study_hash"`
	Report    *opt.Report `json:"report"`
}

// ErrorLine reports a stream failure after NDJSON streaming began (the
// HTTP status is already written, so the envelope cannot carry it).
type ErrorLine struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// JobStatus is the body of GET /v1/jobs/{id} and one row of GET /v1/jobs.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // grid | study
	// Hash is the content hash of the submitted document — the grid hash
	// for grid jobs, the study hash for study jobs.
	Hash      string     `json:"hash"`
	State     string     `json:"state"` // running | done | failed | cancelled
	Done      int        `json:"done"`
	Total     int        `json:"total"`
	CacheHits int        `json:"cache_hits"`
	Created   time.Time  `json:"created"`
	AgeSec    float64    `json:"age_sec"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// RequestID is the correlation ID of the request that submitted the
	// job (X-Request-Id), carried on the record so async work stays
	// greppable in the server's logs. omitempty keeps the wire format
	// byte-compatible with pre-observability servers.
	RequestID string `json:"request_id,omitempty"`
}

// TraceCellHeader is the per-cell header line of GET /v1/jobs/{id}/trace
// NDJSON: each cell of a ?trace=1 grid job contributes one header line
// ({"type":"cell",...}) followed by Events trace-event lines
// (internal/trace.Event encoding). Dropped counts events discarded by
// the server's -max-trace-events cap; a zero Dropped header is a
// complete cell trace.
type TraceCellHeader struct {
	Type    string  `json:"type"` // "cell"
	Index   int     `json:"index"`
	Hash    string  `json:"hash"` // cell spec hash (GET /v1/results/{hash})
	Label   string  `json:"label,omitempty"`
	Load    float64 `json:"load_jobs_per_hour"`
	Seed    int64   `json:"seed"`
	Events  int     `json:"events"`
	Dropped uint64  `json:"dropped,omitempty"`
}

// JobSubmitted is the 202 body of an async submission.
type JobSubmitted struct {
	JobID string `json:"job_id"`
	// Hash is the content hash of the submitted document.
	Hash      string `json:"hash"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// PageInfo is the pagination trailer every listing response embeds.
type PageInfo struct {
	Page       int `json:"page"`
	PageSize   int `json:"page_size"`
	TotalItems int `json:"total_items"`
	TotalPages int `json:"total_pages"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
	PageInfo
}

// PolicyList is the body of GET /v1/policies.
type PolicyList struct {
	Policies []string `json:"policies"`
	PageInfo
}

// WorkloadList is the body of GET /v1/workloads.
type WorkloadList struct {
	Workloads []string `json:"workloads"`
	PageInfo
}

// StudySummary is one row of GET /v1/studies: enough to decide whether
// the full report (GET /v1/studies/{hash}) is worth fetching.
type StudySummary struct {
	Hash           string   `json:"hash"`
	Algorithm      string   `json:"algorithm"`
	Budget         int      `json:"budget_cells"`
	EvaluatedCells int      `json:"evaluated_cells"`
	BestValue      *float64 `json:"best_value,omitempty"`
}

// StudyList is the body of GET /v1/studies.
type StudyList struct {
	Studies []StudySummary `json:"studies"`
	PageInfo
}
