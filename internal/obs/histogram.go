package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram: cumulative counts over
// ascending upper bounds plus a running sum, rendered in the Prometheus
// text exposition format (_bucket/_sum/_count). Observe is lock-free
// and allocation-free — it is called from pool-worker hook paths where
// an allocation would show up in the zero-alloc bench gate — while
// rendering takes the slow path and may allocate freely.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (seconds, by convention). An empty bounds slice still works —
// only the implicit +Inf bucket remains — but loses all resolution.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// WriteProm renders the histogram's sample lines (no family header —
// the caller owns # HELP/# TYPE). labels is a pre-rendered label list
// like `kind="grid"`, or "" for a bare series.
func (h *Histogram) WriteProm(w io.Writer, name, labels string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(labels), formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(labels), cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// formatBound renders a bucket bound exactly like Prometheus clients
// do: shortest float representation, no exponent for typical bounds.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// HistogramVec is a set of histograms sharing one bucket layout, keyed
// by label values — HTTP duration by route×status, job duration by
// kind. Series creation takes a mutex (requests, not simulation cells,
// pay it); Observe on the returned *Histogram stays lock-free.
type HistogramVec struct {
	names  []string
	bounds []float64

	mu     sync.Mutex
	series map[string]*Histogram
}

// NewHistogramVec returns a vec over the given label names and bounds.
func NewHistogramVec(labelNames []string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		names:  append([]string(nil), labelNames...),
		bounds: bounds,
		series: map[string]*Histogram{},
	}
}

// With returns the histogram for the given label values (one per label
// name, in order), creating the series on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.names) {
		panic("obs: label value count mismatch")
	}
	var sb strings.Builder
	for i, name := range v.names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.WriteString(strconv.Quote(values[i]))
	}
	key := sb.String()
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[key]
	if !ok {
		h = NewHistogram(v.bounds)
		v.series[key] = h
	}
	return h
}

// WriteProm renders every series, sorted by label key so scrapes are
// deterministic. No family header — the caller owns # HELP/# TYPE.
func (v *HistogramVec) WriteProm(w io.Writer, name string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	hists := make([]*Histogram, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		hists[i] = v.series[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		hists[i].WriteProm(w, name, k)
	}
}

// Default bucket layouts, in seconds. Chosen once and documented in
// DESIGN.md §14: fixed buckets keep Observe allocation-free and scrapes
// comparable across processes, at the price of resolution beyond the
// last bound.
var (
	// HTTPBuckets spans 1ms–10s: registry GETs land in the first few,
	// synchronous grid runs in the tail.
	HTTPBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// QueueWaitBuckets starts at 10µs: on an idle pool a task is picked
	// up within microseconds, and the interesting signal is the decades
	// between "immediately" and "queued behind a campaign".
	QueueWaitBuckets = []float64{1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}
	// CellBuckets spans 1ms–60s: a smoke-grid cell simulates in
	// milliseconds, a million-job scenario in tens of seconds.
	CellBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}
	// JobBuckets spans 10ms–10min for end-to-end async jobs.
	JobBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300, 600}
)
