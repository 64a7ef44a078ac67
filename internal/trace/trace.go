// Package trace records simulation activity as structured events — job
// lifecycle transitions, subjob dispatches and completions, node
// utilisation and cache occupancy samples — and renders them as JSON Lines
// or summary statistics. The paper's production scheduler runs "both on the
// simulated and on the target system"; an execution trace is the artefact
// operators use to understand either.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind classifies trace events.
type Kind string

const (
	JobArrived     Kind = "job_arrived"
	JobStarted     Kind = "job_started"
	JobFinished    Kind = "job_finished"
	SubjobStarted  Kind = "subjob_started"
	SubjobFinished Kind = "subjob_finished"
	// SubjobLost records a subjob killed by its node failing; Events
	// carries the wasted work (events computed then discarded).
	SubjobLost Kind = "subjob_lost"
	// NodeDown and NodeUp record node churn (failure, repair, late join).
	NodeDown Kind = "node_down"
	NodeUp   Kind = "node_up"
	Sample   Kind = "sample" // periodic cluster state sample
)

// Event is one trace record. Fields are pointers-free and JSON-friendly;
// unused fields are zero and omitted from the encoding.
type Event struct {
	Time float64 `json:"t"`
	Kind Kind    `json:"kind"`

	JobID  int64 `json:"job"`
	Node   int   `json:"node"`
	Events int64 `json:"events,omitempty"`

	// Sample payload.
	BusyNodes    int     `json:"busy_nodes,omitempty"`
	Backlog      int64   `json:"backlog,omitempty"`
	CacheUsed    int64   `json:"cache_used,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}

// Recorder accumulates events. The zero value discards everything; create
// with New to record. Recorder is safe for concurrent use so parallel
// sweeps can share sinks, though a single simulation is single-threaded.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	sink    io.Writer // optional streaming sink (JSONL)
	limit   int
	dropped uint64 // events discarded once limit was reached
}

// New returns a recorder holding at most limit events in memory (0 = no
// limit). If sink is non-nil every event is also streamed to it as JSONL.
func New(limit int, sink io.Writer) *Recorder {
	return &Recorder{limit: limit, sink: sink}
}

// Add records one event.
func (r *Recorder) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit == 0 || len(r.events) < r.limit {
		r.events = append(r.events, e)
	} else {
		r.dropped++
	}
	if r.sink != nil {
		b, err := json.Marshal(e)
		if err == nil {
			r.sink.Write(append(b, '\n'))
		}
	}
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Dropped reports the number of events discarded because the in-memory
// limit was reached — a capped trace export can tell "complete" from
// "truncated" without guessing from the event count.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ReadJSONL parses the JSON Lines a Recorder streams to its sink.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("trace: decoding event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
	return out, nil
}

// Summary aggregates a trace.
type Summary struct {
	Jobs            int64
	Subjobs         int64
	MeanConcurrency float64 // mean busy nodes over samples
	PeakBacklog     int64
	MeanHitRate     float64
}

// Summarise computes aggregate statistics over events.
func Summarise(events []Event) Summary {
	var s Summary
	var samples int64
	var busySum float64
	var hitSum float64
	for _, e := range events {
		switch e.Kind {
		case JobFinished:
			s.Jobs++
		case SubjobFinished:
			s.Subjobs++
		case Sample:
			samples++
			busySum += float64(e.BusyNodes)
			hitSum += e.CacheHitRate
			if e.Backlog > s.PeakBacklog {
				s.PeakBacklog = e.Backlog
			}
		}
	}
	if samples > 0 {
		s.MeanConcurrency = busySum / float64(samples)
		s.MeanHitRate = hitSum / float64(samples)
	}
	return s
}

// Timeline bins per-node busy time from subjob start/finish pairs and
// returns per-node utilisation over [0, horizon]. Events must come from a
// single simulation; unmatched starts are treated as busy until horizon.
func Timeline(events []Event, nodes int, horizon float64) []float64 {
	busy := make([]float64, nodes)
	open := map[int]float64{} // node -> start time of current subjob
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	for _, e := range sorted {
		if e.Node < 0 || e.Node >= nodes {
			continue
		}
		switch e.Kind {
		case SubjobStarted:
			open[e.Node] = e.Time
		case SubjobFinished, SubjobLost:
			if t0, ok := open[e.Node]; ok {
				busy[e.Node] += e.Time - t0
				delete(open, e.Node)
			}
		}
	}
	for n, t0 := range open {
		if horizon > t0 {
			busy[n] += horizon - t0
		}
	}
	util := make([]float64, nodes)
	for i, b := range busy {
		if horizon > 0 {
			util[i] = b / horizon
		}
	}
	return util
}
