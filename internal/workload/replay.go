package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"physched/internal/dataspace"
	"physched/internal/job"
)

// JobRecord is the serialised form of one job of a workload trace: arrival
// time in seconds and the event range. Traces let a study re-run the exact
// same job stream against different policies or parameters, and let real
// accounting logs from a production cluster drive the simulator.
type JobRecord struct {
	Arrival float64 `json:"arrival"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"`
}

// Source yields a stream of jobs; both the synthetic Generator and Replay
// implement it.
type Source interface {
	// Next returns the next job of the stream, or nil when exhausted.
	Next() *job.Job
}

// Next satisfies Source (the synthetic generator never exhausts).
var _ Source = (*Generator)(nil)

// Export writes the next n jobs of src to w as JSON Lines.
func Export(w io.Writer, src Source, n int) error {
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		j := src.Next()
		if j == nil {
			return nil
		}
		rec := JobRecord{Arrival: j.Arrival, Start: j.Range.Start, End: j.Range.End}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("workload: exporting job %d: %w", i, err)
		}
	}
	return nil
}

// Replay yields jobs from a recorded trace.
type Replay struct {
	records []JobRecord
	next    int
	arena   job.Arena
}

// NewReplay parses a JSONL trace written by Export. Records must be in
// non-decreasing arrival order and have non-empty ranges.
func NewReplay(r io.Reader) (*Replay, error) {
	dec := json.NewDecoder(r)
	var records []JobRecord
	var last float64
	for dec.More() {
		var rec JobRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("workload: decoding record %d: %w", len(records), err)
		}
		if rec.Arrival < last {
			return nil, fmt.Errorf("workload: record %d: arrivals must be non-decreasing", len(records))
		}
		if rec.End <= rec.Start {
			return nil, fmt.Errorf("workload: record %d: empty range [%d,%d)", len(records), rec.Start, rec.End)
		}
		last = rec.Arrival
		records = append(records, rec)
	}
	return &Replay{records: records}, nil
}

// Next returns the next job of the trace, or nil when exhausted.
func (r *Replay) Next() *job.Job {
	if r.next >= len(r.records) {
		return nil
	}
	rec := r.records[r.next]
	j := r.arena.NewJob()
	j.ID = int64(r.next)
	j.Arrival = rec.Arrival
	j.ScheduledAt = rec.Arrival
	j.Range = dataspace.Iv(rec.Start, rec.End)
	r.next++
	return j
}
