package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"physched/internal/dataspace"
)

func TestInsertAndContains(t *testing.T) {
	c := NewLRU(1000, EvictLRU)
	c.Insert(dataspace.Iv(0, 100), 1)
	if !c.Contains(dataspace.Iv(0, 100)) {
		t.Error("inserted interval not cached")
	}
	if c.Contains(dataspace.Iv(0, 101)) {
		t.Error("cache claims events it never saw")
	}
	if c.Used() != 100 {
		t.Errorf("Used = %d, want 100", c.Used())
	}
	c.checkInvariants()
}

func TestZeroCapacityCachesNothing(t *testing.T) {
	c := NewLRU(0, EvictLRU)
	c.Insert(dataspace.Iv(0, 100), 1)
	if c.Used() != 0 || !c.Cached().Empty() {
		t.Error("zero-capacity cache stored data")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(300, EvictLRU)
	c.Insert(dataspace.Iv(0, 100), 1)
	c.Insert(dataspace.Iv(200, 300), 2)
	c.Insert(dataspace.Iv(400, 500), 3)
	// Cache full. Touch the oldest so the middle one becomes LRU.
	c.Touch(dataspace.Iv(0, 100), 4)
	c.Insert(dataspace.Iv(600, 700), 5)
	if c.Contains(dataspace.Iv(200, 300)) {
		t.Error("LRU victim [200,300) survived")
	}
	for _, iv := range []dataspace.Interval{
		dataspace.Iv(0, 100), dataspace.Iv(400, 500), dataspace.Iv(600, 700),
	} {
		if !c.Contains(iv) {
			t.Errorf("%v should still be cached", iv)
		}
	}
	c.checkInvariants()
}

func TestFIFOEvictionIgnoresTouch(t *testing.T) {
	c := NewLRU(300, EvictFIFO)
	c.Insert(dataspace.Iv(0, 100), 1)
	c.Insert(dataspace.Iv(200, 300), 2)
	c.Insert(dataspace.Iv(400, 500), 3)
	c.Touch(dataspace.Iv(0, 100), 4) // must not save it under FIFO
	c.Insert(dataspace.Iv(600, 700), 5)
	if c.Contains(dataspace.Iv(0, 100)) {
		t.Error("FIFO victim [0,100) survived despite eviction order")
	}
	c.checkInvariants()
}

func TestPartialEviction(t *testing.T) {
	c := NewLRU(1000, EvictLRU)
	c.Insert(dataspace.Iv(0, 1000), 1)
	c.Insert(dataspace.Iv(2000, 2100), 2)
	if c.Used() != 1000 {
		t.Errorf("Used = %d, want full 1000", c.Used())
	}
	// 100 events of the old segment must have been evicted.
	if got := c.CachedLen(dataspace.Iv(0, 1000)); got != 900 {
		t.Errorf("remaining of old segment = %d, want 900", got)
	}
	if !c.Contains(dataspace.Iv(2000, 2100)) {
		t.Error("new segment missing")
	}
	c.checkInvariants()
}

func TestInsertLargerThanCapacityKeepsTail(t *testing.T) {
	c := NewLRU(500, EvictLRU)
	c.Insert(dataspace.Iv(0, 2000), 1)
	if c.Used() != 500 {
		t.Errorf("Used = %d, want 500", c.Used())
	}
	if !c.Contains(dataspace.Iv(1500, 2000)) {
		t.Error("tail of oversized insert should be cached")
	}
	c.checkInvariants()
}

func TestInsertOverlappingRefreshes(t *testing.T) {
	c := NewLRU(200, EvictLRU)
	c.Insert(dataspace.Iv(0, 100), 1)
	c.Insert(dataspace.Iv(100, 200), 2)
	// Re-insert the first; it must become most recent.
	c.Insert(dataspace.Iv(0, 100), 3)
	c.Insert(dataspace.Iv(300, 400), 4)
	if !c.Contains(dataspace.Iv(0, 100)) {
		t.Error("refreshed segment was evicted")
	}
	if c.Contains(dataspace.Iv(100, 200)) {
		t.Error("stale segment survived")
	}
	c.checkInvariants()
}

// TestRandomisedInvariants drives the cache with random operations and
// validates the internal structure plus the capacity bound at every step.
func TestRandomisedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewLRU(5_000, EvictLRU)
	for step := 0; step < 5_000; step++ {
		start := rng.Int63n(50_000)
		iv := dataspace.Iv(start, start+1+rng.Int63n(3_000))
		switch rng.Intn(4) {
		case 0, 1:
			c.Insert(iv, float64(step))
		case 2:
			c.Touch(iv, float64(step))
		case 3:
			if rng.Intn(50) == 0 {
				c.Clear()
			}
		}
		c.checkInvariants()
		if c.Used() > c.Capacity() {
			t.Fatalf("step %d: over capacity", step)
		}
	}
}

func TestCachedPartMatchesInserts(t *testing.T) {
	c := NewLRU(1_000_000, EvictLRU)
	c.Insert(dataspace.Iv(10, 20), 1)
	c.Insert(dataspace.Iv(30, 40), 1)
	if got := c.CachedLen(dataspace.Iv(0, 35)); got != 15 {
		t.Errorf("CachedLen = %d, want 15", got)
	}
}

// churnCache drives c through a seeded mix of inserts, touches and
// clears, checking the invariants after each step, and returns the
// cached set it ends with.
func churnCache(t *testing.T, c *LRU, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2_000; i++ {
		start := rng.Int63n(20_000)
		iv := dataspace.Iv(start, start+1+rng.Int63n(700))
		switch rng.Intn(20) {
		case 0:
			c.Clear()
		case 1, 2, 3, 4:
			c.Touch(iv, float64(i))
		default:
			c.Insert(iv, float64(i))
		}
		c.checkInvariants()
	}
	return c.Cached().String()
}

// TestReleasedStorageBehavesFresh: a cache built on storage another cache
// released behaves exactly like a cache built from nothing, and a
// build-use-release cycle allocates only the LRU header once the storage
// has grown.
func TestReleasedStorageBehavesFresh(t *testing.T) {
	fresh := &LRU{capacity: 4_000, policy: EvictLRU, head: noSeg, tail: noSeg, freeSeg: noSeg}
	want := churnCache(t, fresh, 1)

	old := NewLRU(4_000, EvictLRU)
	churnCache(t, old, 2)
	old.Release()
	if old.Used() != 0 || !old.Cached().Empty() {
		t.Fatal("a released cache still holds data")
	}
	reused := NewLRU(4_000, EvictLRU)
	if reused.pool == nil {
		t.Fatal("NewLRU did not adopt the released storage")
	}
	if got := churnCache(t, reused, 1); got != want {
		t.Errorf("cache on recycled storage ended with %s, want %s", got, want)
	}
	reused.Release()

	allocs := testing.AllocsPerRun(20, func() {
		c := NewLRU(4_000, EvictLRU)
		for i := int64(0); i < 50; i++ {
			c.Insert(dataspace.Iv(i*300, i*300+200), float64(i))
		}
		c.Release()
	})
	if allocs > 1 {
		t.Errorf("a build-use-release cycle allocates %.1f times, want 1 (the LRU itself)", allocs)
	}
}

// TestDirectorySeeksMatchReference drives a cache through random Insert,
// Touch, Clear and Release calls under checkInvariants, and a twin cache
// through the same calls with its directory finger spoiled before each
// one, so the twin's first seek of each call takes the binary search. Probes cluster near
// the previous one, as the policies' do. Every seek must agree with a
// sort.Search over the directory, and both caches must end each step
// holding the same segments in the same recency order. Clear often
// leaves the finger past the end of the directory.
func TestDirectorySeeksMatchReference(t *testing.T) {
	pastEnd := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity, policy := 200+rng.Int63n(400), EvictPolicy(rng.Intn(2))
		c, twin := NewLRU(capacity, policy), NewLRU(capacity, policy)
		defer c.Release()
		defer twin.Release()
		near := int64(0)
		point := func() int64 {
			if rng.Intn(4) == 0 {
				near = rng.Int63n(2_000)
			} else {
				near += rng.Int63n(61) - 30
			}
			return near
		}
		both := func(f func(*LRU)) {
			f(c)
			twin.finger = len(twin.segs) + 1
			f(twin)
		}
		for step := 0; step < 400; step++ {
			if c.finger > len(c.segs) {
				pastEnd++
			}
			now := float64(step)
			switch op := rng.Intn(40); {
			case op < 14:
				a := point()
				iv := dataspace.Iv(a, a+1+rng.Int63n(120))
				both(func(c *LRU) { c.Insert(iv, now) })
			case op < 20:
				a := point()
				iv := dataspace.Iv(a, a+1+rng.Int63n(120))
				both(func(c *LRU) { c.Touch(iv, now) })
			case op < 22:
				both((*LRU).Clear)
			case op < 23:
				both((*LRU).Release)
			case op < 31:
				e := point()
				want := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].iv.End > e })
				if got := c.seekOverlap(e); got != want {
					t.Errorf("seed %d step %d: seekOverlap(%d) = %d, want %d", seed, step, e, got, want)
					return false
				}
			default:
				e := point()
				want := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].iv.Start >= e })
				if got := c.seekStart(e); got != want {
					t.Errorf("seed %d step %d: seekStart(%d) = %d, want %d", seed, step, e, got, want)
					return false
				}
			}
			c.checkInvariants()
			twin.checkInvariants()
			if got, want := recency(c), recency(twin); got != want {
				t.Errorf("seed %d step %d: cache holds %s, twin %s", seed, step, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if pastEnd == 0 {
		t.Error("no step ran with the finger past the end of the directory")
	}
}

// recency lists the cached segments, most recently used first.
func recency(c *LRU) string {
	var b strings.Builder
	for id := c.head; id != noSeg; id = c.pool[id].next {
		fmt.Fprintf(&b, "%v@%g ", c.pool[id].iv, c.pool[id].last)
	}
	return b.String()
}
