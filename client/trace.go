package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"physched/internal/trace"
)

// TraceCell is one cell of a decoded job trace: its header plus the
// simulation events the server retained for it (len(Events) ==
// Header.Events; Header.Dropped counts the rest).
type TraceCell struct {
	Header TraceCellHeader
	Events []trace.Event
}

// SubmitGridTraced submits a grid as a background job with simulation
// tracing enabled (POST /v1/grids?async=1&trace=1). The finished job's
// per-cell event log is fetched with JobTrace.
func (c *Client) SubmitGridTraced(ctx context.Context, grid []byte) (JobSubmitted, error) {
	var out JobSubmitted
	err := c.do(ctx, http.MethodPost, "/v1/grids?async=1&trace=1", bytes.NewReader(grid), &out)
	return out, err
}

// JobTrace fetches and decodes GET /v1/jobs/{id}/trace: NDJSON of
// per-cell header lines ({"type":"cell",...}), each followed by that
// cell's trace-event lines. Only finished ?trace=1 grid jobs have a
// trace; the server answers 404 (never traced), 409 (still running) or
// 404 with a journal hint (trace lost to a restart) otherwise.
func (c *Client) JobTrace(ctx context.Context, id string) ([]TraceCell, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return decodeTrace(resp.Body)
}

// decodeTrace reads the trace line protocol: a "cell" header line opens
// each cell, and every following non-header line is one of its events.
// An event line before any header, or a malformed line, is an error —
// the format is pinned by tests, so leniency would only hide breakage.
func decodeTrace(r io.Reader) ([]TraceCell, error) {
	var cells []TraceCell
	lr := newLineReader(r, "trace")
	for lr.Scan() {
		if len(bytes.TrimSpace(lr.Bytes())) == 0 {
			continue
		}
		kind, err := lr.readType()
		if err != nil {
			return nil, err
		}
		if kind == "cell" {
			var h TraceCellHeader
			if err := lr.decode(&h, &h.Type); err != nil {
				return nil, err
			}
			cells = append(cells, TraceCell{Header: h})
			continue
		}
		if len(cells) == 0 {
			return nil, fmt.Errorf("physchedd: trace event before any cell header: %s", lr.excerpt())
		}
		var ev trace.Event
		if err := lr.decode(&ev, nil); err != nil {
			return nil, err
		}
		last := &cells[len(cells)-1]
		last.Events = append(last.Events, ev)
	}
	if err := lr.Err(); err != nil {
		return nil, err
	}
	return cells, nil
}
