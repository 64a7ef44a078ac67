// Package freelist recycles run-scoped storage between simulation runs.
// A run's growable buffers (job arena chunks, node cache storage, random
// sources) go back to a package-level List when the run ends, and the
// next run on any goroutine takes them instead of allocating afresh, so a
// sweep's cells stop feeding the garbage collector.
//
// A List is a plain mutex-guarded stack, not a sync.Pool: the collector
// empties a sync.Pool at will, which would make per-run allocation counts
// vary between otherwise identical runs. A List only ever holds values
// that were live at once before, so it never holds more of them than the
// peak number of concurrent users (for the simulation core, the number of
// cells running at the same time).
package freelist

import (
	"math/rand"
	"sync"
)

// List is a concurrency-safe stack of recycled values. The zero List is
// empty and ready for use.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the most recently put value; ok is false when the list is
// empty.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put pushes v for a later Get. The caller gives up v: it must hold no
// other reference to the storage v carries.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.items = append(l.items, v)
	l.mu.Unlock()
}

// rands holds released random sources.
var rands List[*rand.Rand]

// Rand returns a random source seeded with seed, recycled if one is free.
// Seed puts a recycled source in exactly the state
// rand.New(rand.NewSource(seed)) starts in.
func Rand(seed int64) *rand.Rand {
	if r, ok := rands.Get(); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// PutRand gives r back for a later Rand. The caller must not use r
// again.
func PutRand(r *rand.Rand) { rands.Put(r) }
