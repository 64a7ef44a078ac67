// Package resultcache is a content-addressed store of simulation results:
// keys are hex SHA-256 hashes of canonical spec encodings (internal/spec)
// and values are lab.Result summaries or lab.Aggregate replica summaries
// in the pinned JSON wire format. A Store plugs into lab.Options.Cache so
// grid execution skips every cell already simulated anywhere under the
// same key, and backs the physchedd service's by-hash result endpoints.
//
// Three implementations compose: Memory (in-process map), Disk (one JSON
// file per entry, written atomically) and Layered (first hit wins, upper
// layers back-filled). Open builds the conventional memory-over-disk
// stack.
package resultcache

import (
	"sync"

	"physched/internal/cluster"
	"physched/internal/lab"
)

// Store is a content-addressed result store. Implementations must be safe
// for concurrent use; Get/Put satisfy lab.ResultCache.
type Store interface {
	lab.ResultCache
	// GetAggregate and PutAggregate store replica aggregates under their
	// own keys (see spec.Grid.AggregateKey).
	GetAggregate(key string) (lab.Aggregate, bool)
	PutAggregate(key string, a lab.Aggregate)
}

// Memory is an in-process Store.
type Memory struct {
	mu         sync.RWMutex
	results    map[string]entry
	aggregates map[string]lab.Aggregate
}

// entry is what Memory keeps of a lab.Result: every field Result.Stored
// keeps, so Scenario and Collector are left out. A stored Scenario is
// always zero, yet it is 312 of a Result's 512 bytes, and a cold sweep
// keeps one entry per cell.
type entry struct {
	policyName   string
	load         float64
	overloaded   bool
	avgSpeedup   float64
	avgWaiting   float64
	maxWaiting   float64
	p99Waiting   float64
	avgProc      float64
	measuredJobs int
	simTime      float64
	goodput      float64
	cluster      cluster.Stats
}

func newEntry(r lab.Result) entry {
	return entry{
		policyName:   r.PolicyName,
		load:         r.Load,
		overloaded:   r.Overloaded,
		avgSpeedup:   r.AvgSpeedup,
		avgWaiting:   r.AvgWaiting,
		maxWaiting:   r.MaxWaiting,
		p99Waiting:   r.P99Waiting,
		avgProc:      r.AvgProc,
		measuredJobs: r.MeasuredJobs,
		simTime:      r.SimTime,
		goodput:      r.Goodput,
		cluster:      r.Cluster,
	}
}

// result rebuilds the stored form of the result the entry was made from.
func (e entry) result() lab.Result {
	return lab.Result{
		PolicyName:   e.policyName,
		Load:         e.load,
		Overloaded:   e.overloaded,
		AvgSpeedup:   e.avgSpeedup,
		AvgWaiting:   e.avgWaiting,
		MaxWaiting:   e.maxWaiting,
		P99Waiting:   e.p99Waiting,
		AvgProc:      e.avgProc,
		MeasuredJobs: e.measuredJobs,
		SimTime:      e.simTime,
		Goodput:      e.goodput,
		Cluster:      e.cluster,
	}
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		results:    map[string]entry{},
		aggregates: map[string]lab.Aggregate{},
	}
}

// Get returns the cached result for key, in the form r.Stored() of the
// result r that was Put.
func (m *Memory) Get(key string) (lab.Result, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.results[key]
	if !ok {
		return lab.Result{}, false
	}
	return e.result(), true
}

// Put stores r under key. Only the fields of r.Stored() are kept.
func (m *Memory) Put(key string, r lab.Result) {
	e := newEntry(r)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results[key] = e
}

// GetAggregate returns the cached aggregate for key.
func (m *Memory) GetAggregate(key string) (lab.Aggregate, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	a, ok := m.aggregates[key]
	return a, ok
}

// PutAggregate stores a under key.
func (m *Memory) PutAggregate(key string, a lab.Aggregate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aggregates[key] = a
}

// Len reports the number of cached results.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.results)
}

// Layered composes stores: Get consults them in order and back-fills
// every store above the one that hit; Put writes through to all.
type Layered struct {
	layers []Store
}

// NewLayered stacks the given stores, fastest first.
func NewLayered(layers ...Store) *Layered { return &Layered{layers: layers} }

// Get returns the first hit, copying it into the layers consulted before.
func (l *Layered) Get(key string) (lab.Result, bool) {
	for i, s := range l.layers {
		if r, ok := s.Get(key); ok {
			for _, upper := range l.layers[:i] {
				upper.Put(key, r)
			}
			return r, true
		}
	}
	return lab.Result{}, false
}

// Put writes through to every layer.
func (l *Layered) Put(key string, r lab.Result) {
	for _, s := range l.layers {
		s.Put(key, r)
	}
}

// GetAggregate returns the first hit, back-filling upper layers.
func (l *Layered) GetAggregate(key string) (lab.Aggregate, bool) {
	for i, s := range l.layers {
		if a, ok := s.GetAggregate(key); ok {
			for _, upper := range l.layers[:i] {
				upper.PutAggregate(key, a)
			}
			return a, true
		}
	}
	return lab.Aggregate{}, false
}

// PutAggregate writes through to every layer.
func (l *Layered) PutAggregate(key string, a lab.Aggregate) {
	for _, s := range l.layers {
		s.PutAggregate(key, a)
	}
}

// Open builds the conventional cache stack: memory over a disk store at
// dir, or memory only when dir is empty.
func Open(dir string) (Store, error) {
	if dir == "" {
		return NewMemory(), nil
	}
	disk, err := NewDisk(dir)
	if err != nil {
		return nil, err
	}
	return NewLayered(NewMemory(), disk), nil
}
