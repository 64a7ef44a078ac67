package lab

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"physched/internal/trace"
)

// TestPoolHooksObserveTiming: with a single worker and an injected fake
// clock the hook observations are fully deterministic — queue waits grow
// by one task duration per position in the submission, and every run
// duration is exactly the clock advance the task performs.
func TestPoolHooksObserveTiming(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()

	var clk atomic.Int64
	clk.Store(100)
	var mu sync.Mutex
	var waits, runs []int64
	pool.SetHooks(&PoolHooks{
		Now: func() int64 { return clk.Load() },
		Wait: func(ns int64) {
			mu.Lock()
			waits = append(waits, ns)
			mu.Unlock()
		},
		Run: func(ns int64) {
			mu.Lock()
			runs = append(runs, ns)
			mu.Unlock()
		},
	})

	if err := pool.Run(context.Background(), 4, func(int) { clk.Add(7) }); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 4 || len(runs) != 4 {
		t.Fatalf("observed %d waits and %d runs, want 4 and 4", len(waits), len(runs))
	}
	for i, w := range waits {
		if want := int64(7 * i); w != want {
			t.Errorf("task %d queue wait = %d, want %d", i, w, want)
		}
	}
	for i, r := range runs {
		if r != 7 {
			t.Errorf("task %d run duration = %d, want 7", i, r)
		}
	}
}

// TestPoolHooksRemovable: SetHooks(nil) restores the unhooked path.
func TestPoolHooksRemovable(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	var calls atomic.Int64
	pool.SetHooks(&PoolHooks{
		Now:  func() int64 { return 1 },
		Wait: func(int64) { calls.Add(1) },
		Run:  func(int64) { calls.Add(1) },
	})
	pool.SetHooks(nil)
	if err := pool.Run(context.Background(), 3, func(int) {}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("removed hooks still fired %d times", calls.Load())
	}
}

// TestPoolHooksRequireAllFields: partial hooks are a wiring bug, caught
// at install time rather than as a nil-call panic on a worker.
func TestPoolHooksRequireAllFields(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("SetHooks with a nil field did not panic")
		}
	}()
	pool.SetHooks(&PoolHooks{Now: func() int64 { return 0 }})
}

// countingCache wraps a map cache and counts traffic so tests can assert
// which cells touched it.
type countingCache struct {
	mu         sync.Mutex
	m          map[string]Result
	gets, puts int
}

func (c *countingCache) Get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	r, ok := c.m[key]
	return r, ok
}

func (c *countingCache) Put(key string, r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = r
}

// cellKey keys a cell by its grid coordinates — good enough for tests
// that re-execute the same grid.
func cellKey(c Cell) (string, bool) {
	return fmt.Sprintf("%d/%d/%d", c.Variant, c.LoadIdx, c.SeedIdx), true
}

// TestGridTraceBypassesCache is the trace↔cache isolation contract:
// a traced cell neither reads nor writes the result cache. Reading
// would let a warm cache skip the simulation the trace is supposed to
// witness; writing would store bytes produced under the sampler's extra
// timer events, poisoning the content-addressed store that the
// byte-identity contract replays from.
func TestGridTraceBypassesCache(t *testing.T) {
	grid := testGrid(3)
	cache := &countingCache{m: map[string]Result{}}

	// Warm the cache untraced and snapshot the canonical bytes.
	first, err := grid.Execute(Options{Workers: 1, Cache: cache, Keys: cellKey})
	if err != nil {
		t.Fatal(err)
	}
	wantPuts := len(first.Results)
	if cache.puts != wantPuts {
		t.Fatalf("warm-up stored %d results, want %d", cache.puts, wantPuts)
	}
	canonical := marshal(t, first.Results)

	// Re-execute with cell 0 traced: it must simulate (recorder fills)
	// and must not touch the cache in either direction.
	rec := trace.New(0, nil)
	traced, err := grid.Execute(Options{Workers: 1, Cache: cache, Keys: cellKey,
		Trace: func(c Cell) *trace.Recorder {
			if c.Variant == 0 && c.LoadIdx == 0 && c.SeedIdx == 0 {
				return rec
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("traced cell recorded no events — cache hit skipped the simulation?")
	}
	if traced.CacheHits != len(traced.Results)-1 {
		t.Errorf("traced run got %d cache hits, want %d (all but the traced cell)",
			traced.CacheHits, len(traced.Results)-1)
	}
	if cache.puts != wantPuts {
		t.Errorf("traced run wrote %d extra cache entries", cache.puts-wantPuts)
	}

	// A final untraced run must replay the original bytes — the traced
	// run poisoned nothing.
	third, err := grid.Execute(Options{Workers: 1, Cache: cache, Keys: cellKey})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHits != len(third.Results) {
		t.Errorf("final run got %d cache hits, want %d", third.CacheHits, len(third.Results))
	}
	if got := marshal(t, third.Results); string(got) != string(canonical) {
		t.Errorf("cache bytes changed after a traced run:\nbefore: %s\nafter:  %s", canonical, got)
	}
}

// TestRecorderDroppedCounts: the capped recorder reports exactly how
// many events it discarded, so trace exports can mark truncation.
func TestRecorderDroppedCounts(t *testing.T) {
	rec := trace.New(2, nil)
	for i := 0; i < 5; i++ {
		rec.Add(trace.Event{Time: float64(i), Kind: trace.Sample})
	}
	if len(rec.Events()) != 2 {
		t.Fatalf("Len = %d, want 2", len(rec.Events()))
	}
	if rec.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", rec.Dropped())
	}
}
