// Package resultcache is a content-addressed store of simulation results:
// keys are hex SHA-256 hashes of canonical spec encodings (internal/spec)
// and values are lab.Result summaries or lab.Aggregate replica summaries
// in the pinned JSON wire format. A Store plugs into lab.Options.Cache so
// grid execution skips every cell already simulated anywhere under the
// same key, and backs the physchedd service's by-hash result endpoints.
//
// A Store is an in-process map, backed by one checksummed file per entry
// when it has a directory (Open). A key's value never changes, so a key
// the map holds is never written again. A file that is not exactly what
// the store writes reads as a miss: a damaged cache costs re-simulation,
// never a wrong result.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"physched/internal/cluster"
	"physched/internal/lab"
)

// Store is the content-addressed result store. It is safe for concurrent
// use; Get/Put satisfy lab.ResultCache.
type Store struct {
	dir string // "" keeps entries in memory only

	mu         sync.RWMutex
	results    map[string]entry
	aggregates map[string]lab.Aggregate

	hits, misses, puts          atomic.Uint64
	aggHits, aggMisses, aggPuts atomic.Uint64
	corrupt                     atomic.Uint64
}

// Stats is a point-in-time snapshot of a Store's traffic. Counters are
// monotonic over the store's lifetime; rates are the scraper's job.
type Stats struct {
	Hits, Misses, Puts          uint64 // result entries
	AggHits, AggMisses, AggPuts uint64 // aggregate entries
	Corrupt                     uint64 // disk entries rejected by verification, read as misses
}

// entry is what the store keeps in memory of a lab.Result: every field
// Result.Stored keeps, so Scenario and Collector are left out. A stored
// Scenario is always zero, yet it is 312 of a Result's 512 bytes, and a
// cold sweep keeps one entry per cell.
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

func keepAggregate(a lab.Aggregate) lab.Aggregate { return a }

// NewMemory returns an empty store that keeps entries in memory only.
func NewMemory() *Store {
	return &Store{results: map[string]entry{}, aggregates: map[string]lab.Aggregate{}}
}

// Open returns a store backed by the directory dir, created if needed;
// entries that earlier stores wrote there are read on demand. An empty
// dir gives a memory-only store.
func Open(dir string) (*Store, error) {
	s := NewMemory()
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s.dir = dir
	return s, nil
}

// Get returns the cached result for key, in the form r.Stored() of the
// result r that was Put.
func (s *Store) Get(key string) (lab.Result, bool) {
	e, ok := get(s, s.results, key, "result", newEntry)
	count(ok, &s.hits, &s.misses)
	return e.result(), ok
}

// Put stores r under key unless the store holds key already; a key that
// is not a hex SHA-256 string is dropped. Only the fields of r.Stored()
// are kept; on disk they take the JSON wire format, in which Scenario and
// Collector are excluded by their json:"-" tags.
func (s *Store) Put(key string, r lab.Result) {
	s.puts.Add(1)
	put(s, s.results, key, "result", r, newEntry)
}

// GetAggregate returns the cached aggregate for key (see
// spec.Grid.AggregateKey).
func (s *Store) GetAggregate(key string) (lab.Aggregate, bool) {
	a, ok := get(s, s.aggregates, key, "aggregate", keepAggregate)
	count(ok, &s.aggHits, &s.aggMisses)
	return a, ok
}

// PutAggregate stores a under key, on the terms of Put.
func (s *Store) PutAggregate(key string, a lab.Aggregate) {
	s.aggPuts.Add(1)
	put(s, s.aggregates, key, "aggregate", a, keepAggregate)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(),
		AggHits: s.aggHits.Load(), AggMisses: s.aggMisses.Load(), AggPuts: s.aggPuts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

func count(hit bool, hits, misses *atomic.Uint64) {
	if hit {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
}

// get reads key from memory, then from disk, copying a disk hit into
// memory. keep converts a decoded value into its in-memory form.
func get[E, V any](s *Store, m map[string]E, key, kind string, keep func(V) E) (E, bool) {
	s.mu.RLock()
	e, ok := m[key]
	s.mu.RUnlock()
	if ok || s.dir == "" || !validKey(key) {
		return e, ok
	}
	var v V
	if !s.read(key, kind, &v) {
		return e, false
	}
	e = keep(v)
	s.mu.Lock()
	m[key] = e
	s.mu.Unlock()
	return e, true
}

// put stores v under key unless memory already holds key: a content
// key's value never changes, so only a new key is written to disk.
func put[E, V any](s *Store, m map[string]E, key, kind string, v V, keep func(V) E) {
	if !validKey(key) {
		return
	}
	e := keep(v)
	s.mu.Lock()
	_, held := m[key]
	if !held {
		m[key] = e
	}
	s.mu.Unlock()
	if !held && s.dir != "" {
		s.write(key, kind, v)
	}
}

// validKey accepts exactly the hex SHA-256 strings internal/spec produces,
// keeping arbitrary request strings (physchedd serves by-hash lookups)
// from naming paths outside the store.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key, kind string) string {
	return filepath.Join(s.dir, key+"."+kind+".json")
}

// encode renders the file the store writes for v: the wire JSON of v
// with its SHA-256, as {"sha256":"<hex>","value":<wire JSON>}.
func encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, `{"sha256":"%x","value":%s}`, sha256.Sum256(b), b), nil
}

// read decodes the file at key into v. It accepts the file only when its
// bytes are exactly what encode writes for the decoded value: the
// checksum catches a changed value that still decodes, the byte
// comparison anything JSON decoding forgives (key case, spacing,
// duplicate keys). A missing file is a miss; a rejected one is a miss
// that bumps the corrupt counter.
func (s *Store) read(key, kind string, v any) bool {
	b, err := os.ReadFile(s.path(key, kind))
	if err != nil {
		return false
	}
	var f struct {
		Value json.RawMessage `json:"value"`
	}
	if json.Unmarshal(b, &f) == nil && json.Unmarshal(f.Value, v) == nil {
		if want, err := encode(v); err == nil && bytes.Equal(b, want) {
			return true
		}
	}
	s.corrupt.Add(1)
	return false
}

// write atomically persists v at key: the file is written to a temporary
// name and renamed into place, so concurrent readers (other processes
// included) never observe a partial entry. Failures drop the entry (a
// cache must not turn disk pressure into simulation errors).
func (s *Store) write(key, kind string, v any) {
	b, err := encode(v)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, s.path(key, kind)); err != nil {
		os.Remove(name)
	}
}
