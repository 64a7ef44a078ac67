package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call the benchmark made into a layer: its name,
// monotonic start and end relative to the run's start, the span that
// caused it, and the job, request or cell it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ref    string `json:"ref,omitempty"`
}

// tracer keeps spans in memory and writes them out once the run ends.
// A disabled tracer records nothing and costs one branch per call, so
// the untraced run measures the same code.
type tracer struct {
	on   atomic.Bool // toggled between phases, read by pool workers
	base time.Time
	ids  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{base: time.Now()}
	t.on.Store(on)
	return t
}

// newID reserves a span ID so children can name a parent that is still
// open; 0 means "no span" and is what a disabled tracer returns.
func (t *tracer) newID() int64 {
	if !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// add records the finished span id (0 allocates a fresh ID) and returns
// its ID.
func (t *tracer) add(id int64, name string, parent int64, ref string, start, end time.Time) int64 {
	if !t.on.Load() {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{ID: id, Parent: parent, Name: name, Ref: ref,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byName returns copies of the spans named name, in recording order.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanSpan sets metric to the mean duration of spans named name, scaled
// from ms by scale (1 for ms, 1000 for µs). No spans leaves it unset.
func (t *tracer) meanSpan(out *outcome, metric, name string, scale float64) {
	var ms []float64
	for _, s := range t.byName(name) {
		ms = append(ms, float64(s.End-s.Start)/1e6)
	}
	if len(ms) > 0 {
		out.set(metric, mean(ms)*scale, len(ms))
	}
}

// write stores the spans as NDJSON under .bench_build/spans and returns
// the file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
