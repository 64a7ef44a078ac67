package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one physchedd instance. The zero value is not usable;
// construct with New. Methods are safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default client has no overall timeout:
// grid and study streams legitimately run for as long as the simulation
// does.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New returns a client for the service at base, e.g.
// "http://localhost:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiError decodes the structured error envelope of a non-2xx response.
// A body that is not an envelope (a proxy's HTML, a truncated write)
// still produces a usable APIError with the raw text as the message.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Message != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = secs
		}
	}
	return e
}

// do issues one request and decodes a 2xx JSON body into out (skipped
// when out is nil). Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Page selects one page of a listing. The zero value means the server's
// defaults (first page, default size).
type Page struct {
	Page int // 1-based; 0 = first page
	Size int // items per page; 0 = server default
}

func (p Page) query() url.Values {
	q := url.Values{}
	if p.Page > 0 {
		q.Set("page", strconv.Itoa(p.Page))
	}
	if p.Size > 0 {
		q.Set("page_size", strconv.Itoa(p.Size))
	}
	return q
}

// Policies lists one page of the built-in scheduling policies.
func (c *Client) Policies(ctx context.Context, p Page) (PolicyList, error) {
	var out PolicyList
	err := c.do(ctx, http.MethodGet, "/v1/policies"+encodeQuery(p.query()), nil, &out)
	return out, err
}

// Workloads lists one page of the built-in workload kinds.
func (c *Client) Workloads(ctx context.Context, p Page) (WorkloadList, error) {
	var out WorkloadList
	err := c.do(ctx, http.MethodGet, "/v1/workloads"+encodeQuery(p.query()), nil, &out)
	return out, err
}

// RunSpec runs one declarative scenario spec (POST /v1/specs),
// blocking until the result — cached or freshly simulated — arrives.
func (c *Client) RunSpec(ctx context.Context, spec []byte) (SpecResponse, error) {
	var out SpecResponse
	err := c.do(ctx, http.MethodPost, "/v1/specs", bytes.NewReader(spec), &out)
	return out, err
}

// Result fetches a cached run result by its spec hash.
func (c *Client) Result(ctx context.Context, hash string) (SpecResponse, error) {
	var out SpecResponse
	err := c.do(ctx, http.MethodGet, "/v1/results/"+url.PathEscape(hash), nil, &out)
	return out, err
}

// Aggregate fetches a cached replica aggregate by its hash.
func (c *Client) Aggregate(ctx context.Context, hash string) (AggregateResponse, error) {
	var out AggregateResponse
	err := c.do(ctx, http.MethodGet, "/v1/aggregates/"+url.PathEscape(hash), nil, &out)
	return out, err
}

// RunGrid runs a grid spec synchronously (POST /v1/grids), invoking
// onProgress — when non-nil — for every streamed progress line, and
// returns the terminal result line.
func (c *Client) RunGrid(ctx context.Context, grid []byte, onProgress func(ProgressLine)) (*ResultLine, error) {
	end, err := c.stream(ctx, http.MethodPost, "/v1/grids", bytes.NewReader(grid), onProgress)
	if err != nil {
		return nil, err
	}
	if end.result == nil {
		return nil, fmt.Errorf("physchedd: grid stream ended with a %s line, want result", end.kind)
	}
	return end.result, nil
}

// RunStudy runs a budgeted scenario search synchronously
// (POST /v1/studies) and returns the terminal study line.
func (c *Client) RunStudy(ctx context.Context, study []byte, onProgress func(ProgressLine)) (*StudyLine, error) {
	end, err := c.stream(ctx, http.MethodPost, "/v1/studies", bytes.NewReader(study), onProgress)
	if err != nil {
		return nil, err
	}
	if end.study == nil {
		return nil, fmt.Errorf("physchedd: study stream ended with a %s line, want study", end.kind)
	}
	return end.study, nil
}

// SubmitGrid submits a grid as a background job (POST /v1/grids?async=1).
func (c *Client) SubmitGrid(ctx context.Context, grid []byte) (JobSubmitted, error) {
	var out JobSubmitted
	err := c.do(ctx, http.MethodPost, "/v1/grids?async=1", bytes.NewReader(grid), &out)
	return out, err
}

// SubmitStudy submits a study as a background job
// (POST /v1/studies?async=1).
func (c *Client) SubmitStudy(ctx context.Context, study []byte) (JobSubmitted, error) {
	var out JobSubmitted
	err := c.do(ctx, http.MethodPost, "/v1/studies?async=1", bytes.NewReader(study), &out)
	return out, err
}

// Job fetches an async job's status document.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// JobFilter narrows and pages GET /v1/jobs.
type JobFilter struct {
	State string // running | done | failed | cancelled; "" = all
	Kind  string // grid | study; "" = all
	Page
}

// Jobs lists one page of retained async jobs, optionally filtered by
// state and kind.
func (c *Client) Jobs(ctx context.Context, f JobFilter) (JobList, error) {
	q := f.query()
	if f.State != "" {
		q.Set("state", f.State)
	}
	if f.Kind != "" {
		q.Set("kind", f.Kind)
	}
	var out JobList
	err := c.do(ctx, http.MethodGet, "/v1/jobs"+encodeQuery(q), nil, &out)
	return out, err
}

// CancelJob cancels a running async job (DELETE /v1/jobs/{id}). Unknown
// jobs return not_found, finished jobs conflict.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// WaitJob polls a job's status every interval (≤0 means 50ms) until it
// leaves the running state or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (JobStatus, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State != "running" {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// StreamJob (re)attaches to a job's NDJSON stream
// (GET /v1/jobs/{id}/stream): every line produced so far replays, then
// the live run is followed. onProgress, when non-nil, receives each
// progress line; the terminal line is returned with exactly one of
// result/study non-nil.
func (c *Client) StreamJob(ctx context.Context, id string, onProgress func(ProgressLine)) (result *ResultLine, study *StudyLine, err error) {
	end, err := c.stream(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/stream", nil, onProgress)
	if err != nil {
		return nil, nil, err
	}
	return end.result, end.study, nil
}

// Metrics fetches the raw Prometheus text exposition of GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// streamEnd is the decoded terminal line of an NDJSON stream.
type streamEnd struct {
	kind   string
	result *ResultLine
	study  *StudyLine
}

// stream issues an NDJSON request and decodes the line protocol:
// progress lines go to onProgress, an error line becomes an error, and
// the terminal result/study line is returned. A stream that ends without
// a terminal line (server death mid-run) is an error, not a silent nil.
func (c *Client) stream(ctx context.Context, method, path string, body io.Reader, onProgress func(ProgressLine)) (streamEnd, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return streamEnd{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return streamEnd{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return streamEnd{}, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			return streamEnd{}, fmt.Errorf("physchedd: bad NDJSON line %q: %w", sc.Text(), err)
		}
		switch kind.Type {
		case "progress":
			var p ProgressLine
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				return streamEnd{}, err
			}
			if onProgress != nil {
				onProgress(p)
			}
		case "result":
			var r ResultLine
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return streamEnd{}, err
			}
			return streamEnd{kind: "result", result: &r}, nil
		case "study":
			var s StudyLine
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				return streamEnd{}, err
			}
			return streamEnd{kind: "study", study: &s}, nil
		case "error":
			var e ErrorLine
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				return streamEnd{}, err
			}
			return streamEnd{}, fmt.Errorf("physchedd: stream error: %s", e.Error)
		default:
			return streamEnd{}, fmt.Errorf("physchedd: unexpected stream line type %q", kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return streamEnd{}, err
	}
	return streamEnd{}, fmt.Errorf("physchedd: stream ended without a terminal line")
}

// StudyReport fetches a finished study's report by study hash.
func (c *Client) StudyReport(ctx context.Context, hash string) (*StudyLine, error) {
	var out StudyLine
	err := c.do(ctx, http.MethodGet, "/v1/studies/"+url.PathEscape(hash), nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Studies lists one page of retained study reports.
func (c *Client) Studies(ctx context.Context, p Page) (StudyList, error) {
	var out StudyList
	err := c.do(ctx, http.MethodGet, "/v1/studies"+encodeQuery(p.query()), nil, &out)
	return out, err
}

// encodeQuery renders a query string with its leading "?", or "" when
// empty — so paths without parameters stay byte-identical to the
// hand-written form.
func encodeQuery(q url.Values) string {
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}
