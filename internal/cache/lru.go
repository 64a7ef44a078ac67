// Package cache implements the node disk caches of the simulated cluster:
// a per-node LRU cache of event-data segments (the paper's scheduler
// "deallocates the least recently used cached segments" when space is
// needed), a cluster-wide index answering "which node caches which part of
// this range", and an interval counter used by the data-replication policy
// of §4.2 (replicate a segment on its third remote access).
package cache

import (
	"fmt"

	"physched/internal/dataspace"
	"physched/internal/freelist"
)

// EvictPolicy selects which cached segment to evict when space is needed.
type EvictPolicy int

const (
	// EvictLRU evicts the least recently used segment (the paper's choice).
	EvictLRU EvictPolicy = iota
	// EvictFIFO evicts the oldest inserted segment regardless of use.
	EvictFIFO
)

// LRU is a disk cache holding event-index segments with a capacity in
// events. The zero value is unusable; construct with NewLRU. A capacity of
// zero yields a valid cache that never holds anything (the paper's
// no-caching policies).
//
// The cache performs no steady-state allocation and holds no per-segment
// pointers: segments live in a growable pool addressed by int32 handles,
// the recency order and the free list are intrusive index lists, and the
// sorted segment directory carries the interval inline. Keeping the
// directory pointer-free matters on the hot path — its memmoves need no
// GC write barriers and its binary searches chase no pointers.
//
// The steady state spans runs too: Release hands the pool, directory,
// cached set and gap scratch to a package-level free list when a run
// ends, and NewLRU adopts a released set, so a sweep's later cells start
// with storage already grown.
type LRU struct {
	capacity int64
	used     int64
	policy   EvictPolicy
	head     int32    // most recently used, noSeg when empty
	tail     int32    // least recently used
	segs     []segRef // sorted by interval start, disjoint
	finger   int      // directory position the last seek returned
	set      dataspace.Set

	pool     []segment // segment storage, addressed by segRef.id
	freeSeg  int32     // recycled pool slots, linked through next
	poolBase int       // next never-used pool slot

	gapScratch []dataspace.Interval
}

// noSeg is the nil value of a segment handle.
const noSeg = int32(-1)

// segRef is one directory entry: the segment's interval (the search key,
// kept in sync with the pool entry) and its pool handle.
type segRef struct {
	iv dataspace.Interval
	id int32
}

type segment struct {
	iv         dataspace.Interval
	last       float64
	prev, next int32 // recency list links (next also threads the free list)
}

// storage is the growable part of an LRU, recycled whole between runs.
// Every slice is empty; the pool keeps its length, but no slot is read
// before newSegment writes it in full.
type storage struct {
	pool []segment
	segs []segRef
	set  dataspace.Set
	gaps []dataspace.Interval
}

// freeStorage holds the storage of released caches.
var freeStorage freelist.List[storage]

// NewLRU returns a cache with the given capacity in events. A cache that
// can hold anything adopts released storage, if any is free.
func NewLRU(capacityEvents int64, policy EvictPolicy) *LRU {
	if capacityEvents < 0 {
		panic("cache: negative capacity")
	}
	c := &LRU{capacity: capacityEvents, policy: policy, head: noSeg, tail: noSeg, freeSeg: noSeg}
	if capacityEvents > 0 {
		if st, ok := freeStorage.Get(); ok {
			c.pool, c.segs, c.set, c.gapScratch = st.pool, st.segs, st.set, st.gaps
		}
	}
	return c
}

// Release empties the cache and gives its storage back for reuse by
// caches built later. Views obtained through Cached are invalid
// afterwards. The cache stays usable, as an empty cache that grows
// fresh storage.
func (c *LRU) Release() {
	if c.pool != nil {
		c.set.Reset()
		freeStorage.Put(storage{pool: c.pool, segs: c.segs[:0], set: c.set, gaps: c.gapScratch[:0]})
	}
	*c = LRU{capacity: c.capacity, policy: c.policy, head: noSeg, tail: noSeg, freeSeg: noSeg}
}

// Capacity returns the capacity in events.
func (c *LRU) Capacity() int64 { return c.capacity }

// Used returns the number of currently cached events.
func (c *LRU) Used() int64 { return c.used }

// Cached returns the set of cached events. The returned set is a read-only
// view sharing the cache's storage: it is valid only until the next cache
// mutation (Insert, Touch, Clear).
func (c *LRU) Cached() dataspace.Set { return c.set }

// Contains reports whether iv is entirely cached.
func (c *LRU) Contains(iv dataspace.Interval) bool { return c.set.ContainsInterval(iv) }

// CachedLen returns the number of cached events of iv, without
// materialising them.
func (c *LRU) CachedLen(iv dataspace.Interval) int64 { return c.set.IntersectLen(iv) }

// cachedFirstRunFrom returns the first cached run of iv with a
// resumable cursor (see dataspace.Set.FirstRunFrom); the hint is
// invalidated by any mutation.
func (c *LRU) cachedFirstRunFrom(iv dataspace.Interval, hint int) (dataspace.Interval, int) {
	return c.set.FirstRunFrom(iv, hint)
}

// Insert adds iv to the cache at time now, evicting according to the
// eviction policy if needed. Parts of iv already cached are refreshed
// (treated as used now). If iv exceeds the whole capacity, only its tail
// (the most recently streamed events) is kept.
func (c *LRU) Insert(iv dataspace.Interval, now float64) {
	if c.capacity == 0 || iv.Empty() {
		return
	}
	if iv.Len() > c.capacity {
		iv = dataspace.Iv(iv.End-c.capacity, iv.End)
	}
	// One pass over the overlapping segments both refreshes them (Touch)
	// and collects the uncovered gaps, instead of a second search over the
	// cached set: the segments jointly cover exactly the cached events.
	gaps := c.gapScratch[:0]
	pos := iv.Start
	i := c.seekOverlap(iv.Start)
	for i < len(c.segs) && c.segs[i].iv.Start < iv.End {
		id := c.segs[i].id
		i = c.splitOutAt(i, iv) + 1
		s := &c.pool[id]
		s.last = now
		if c.policy == EvictLRU {
			c.listMoveToFront(id)
		}
		if pos < s.iv.Start {
			gaps = append(gaps, dataspace.Iv(pos, s.iv.Start))
		}
		pos = s.iv.End
	}
	if pos < iv.End {
		gaps = append(gaps, dataspace.Iv(pos, iv.End))
	}
	c.gapScratch = gaps
	for _, part := range gaps {
		c.makeRoom(part.Len(), iv)
		c.used += part.Len()
		c.set.AddInPlace(part)
		c.addSegment(c.newSegment(part, now))
	}
}

// Touch marks the cached parts of iv as used at time now, refreshing their
// LRU position.
func (c *LRU) Touch(iv dataspace.Interval, now float64) {
	if iv.Empty() {
		return
	}
	i := c.seekOverlap(iv.Start)
	for i < len(c.segs) && c.segs[i].iv.Start < iv.End {
		id := c.segs[i].id
		i = c.splitOutAt(i, iv) + 1
		c.pool[id].last = now
		if c.policy == EvictLRU {
			c.listMoveToFront(id)
		}
	}
}

// Clear empties the cache — a node failure that takes the disk with it.
// One pass, not per-segment dropSegment: Clear runs on every disk-losing
// failure.
func (c *LRU) Clear() {
	c.used = 0
	c.set.Reset()
	for _, ref := range c.segs {
		c.releaseSegment(ref.id)
	}
	c.segs = c.segs[:0]
	c.head, c.tail = noSeg, noSeg
}

// makeRoom evicts segments until need events fit. Segments overlapping
// protect are never evicted (they belong to the insertion in progress).
func (c *LRU) makeRoom(need int64, protect dataspace.Interval) {
	for c.used+need > c.capacity {
		victim := c.victim(protect)
		if victim == noSeg {
			return // everything left is protected; insert over capacity
		}
		v := &c.pool[victim]
		over := c.used + need - c.capacity
		if v.iv.Len() > over {
			// Partial eviction: drop just enough of the victim. Trimming
			// its start keeps the directory order — the shrunk victim still
			// sorts before its right neighbour — so no slice surgery.
			evict := dataspace.Iv(v.iv.Start, v.iv.Start+over)
			c.set.RemoveInPlace(evict)
			c.used -= evict.Len()
			si := c.seekStart(v.iv.Start)
			v.iv = dataspace.Iv(evict.End, v.iv.End)
			c.segs[si].iv = v.iv
			return
		}
		c.dropSegment(victim)
	}
}

// victim returns the next segment to evict, or noSeg if only protected
// segments remain.
func (c *LRU) victim(protect dataspace.Interval) int32 {
	for id := c.tail; id != noSeg; id = c.pool[id].prev {
		if !c.pool[id].iv.Overlaps(protect) {
			return id
		}
	}
	return noSeg
}

func (c *LRU) dropSegment(id int32) {
	iv := c.pool[id].iv
	c.set.RemoveInPlace(iv)
	c.used -= iv.Len()
	c.listRemove(id)
	c.removeFromSlice(id)
	c.releaseSegment(id)
}

// splitOutAt shrinks the segment at directory position i so it lies
// entirely within iv, creating sibling segments (same recency) for the
// parts outside iv. The siblings go directly next to position i — disjoint
// sorted segments need no re-search — and the (possibly shifted) position
// of the shrunk segment is returned.
func (c *LRU) splitOutAt(i int, iv dataspace.Interval) int {
	id := c.segs[i].id
	siv := c.pool[id].iv
	in := siv.Intersect(iv)
	if in == siv {
		return i
	}
	last := c.pool[id].last
	if left := dataspace.Iv(siv.Start, in.Start); !left.Empty() {
		sib := c.newSegment(left, last)
		c.listInsertAfter(sib, id)
		c.insertAt(i, segRef{left, sib})
		i++
	}
	if right := dataspace.Iv(in.End, siv.End); !right.Empty() {
		sib := c.newSegment(right, last)
		c.listInsertAfter(sib, id)
		c.insertAt(i+1, segRef{right, sib})
	}
	c.pool[id].iv = in
	c.segs[i].iv = in
	return i
}

func (c *LRU) addSegment(id int32) {
	c.listPushFront(id)
	iv := c.pool[id].iv
	c.insertAt(c.seekStart(iv.Start), segRef{iv, id})
}

// segChunk is how many segments one pool growth provides; slots are only
// ever recycled through the free list, so chunked growth keeps the
// steady-state allocation count at zero without any lifetime bookkeeping.
const segChunk = 64

// newSegment takes a pool slot from the free list, growing the pool a
// chunk at a time.
func (c *LRU) newSegment(iv dataspace.Interval, last float64) int32 {
	id := c.freeSeg
	if id == noSeg {
		if c.poolBase == len(c.pool) {
			c.pool = append(c.pool, make([]segment, segChunk)...)
		}
		id = int32(c.poolBase)
		c.poolBase++
	} else {
		c.freeSeg = c.pool[id].next
	}
	c.pool[id] = segment{iv: iv, last: last, prev: noSeg, next: noSeg}
	return id
}

func (c *LRU) releaseSegment(id int32) {
	c.pool[id].prev = noSeg
	c.pool[id].next = c.freeSeg
	c.freeSeg = id
}

// Intrusive recency list. head = most recently used; the links live in
// the pool entries, so list maintenance allocates nothing.

func (c *LRU) listPushFront(id int32) {
	s := &c.pool[id]
	s.prev = noSeg
	s.next = c.head
	if c.head != noSeg {
		c.pool[c.head].prev = id
	}
	c.head = id
	if c.tail == noSeg {
		c.tail = id
	}
}

func (c *LRU) listRemove(id int32) {
	s := &c.pool[id]
	if s.prev != noSeg {
		c.pool[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != noSeg {
		c.pool[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = noSeg, noSeg
}

func (c *LRU) listMoveToFront(id int32) {
	if c.head == id {
		return
	}
	c.listRemove(id)
	c.listPushFront(id)
}

func (c *LRU) listInsertAfter(id, after int32) {
	s := &c.pool[id]
	a := &c.pool[after]
	s.prev = after
	s.next = a.next
	if a.next != noSeg {
		c.pool[a.next].prev = id
	} else {
		c.tail = id
	}
	a.next = id
}

// seekOverlap returns the directory position of the first segment with
// End > t — the first candidate to overlap an interval starting at t.
// This is the hottest lookup of the cache, and an Insert's or Touch's
// seeks mostly return to where the previous one landed, so it tries the
// finger first: two comparisons prove it still right. Otherwise a
// branch-free binary search (the comparison's sign bit moves the base,
// as in dataspace.Set.searchEnd) finds the position and the finger moves
// there.
func (c *LRU) seekOverlap(t int64) int {
	segs, f := c.segs, c.finger
	if f <= len(segs) && (f == 0 || segs[f-1].iv.End <= t) && (f == len(segs) || segs[f].iv.End > t) {
		return f
	}
	f = 0
	if n := len(segs); n > 0 {
		for n > 1 {
			half := n >> 1
			f += half & int(^((t - segs[f+half].iv.End) >> 63)) // End <= t: move right
			n -= half
		}
		f += int(((segs[f].iv.End - t - 1) >> 63) & 1)
	}
	c.finger = f
	return f
}

// seekStart returns the directory position of the first segment with
// Start >= t, through the same finger as seekOverlap.
func (c *LRU) seekStart(t int64) int {
	segs, f := c.segs, c.finger
	if f <= len(segs) && (f == 0 || segs[f-1].iv.Start < t) && (f == len(segs) || segs[f].iv.Start >= t) {
		return f
	}
	f = 0
	if n := len(segs); n > 0 {
		for n > 1 {
			half := n >> 1
			f += half & int(^((t - 1 - segs[f+half].iv.Start) >> 63)) // Start < t: move right
			n -= half
		}
		f += int(((segs[f].iv.Start - t) >> 63) & 1)
	}
	c.finger = f
	return f
}

func (c *LRU) insertAt(i int, ref segRef) {
	c.segs = append(c.segs, segRef{})
	copy(c.segs[i+1:], c.segs[i:])
	c.segs[i] = ref
}

func (c *LRU) removeAt(i int) {
	copy(c.segs[i:], c.segs[i+1:])
	c.segs = c.segs[:len(c.segs)-1]
}

func (c *LRU) removeFromSlice(id int32) {
	i := c.seekStart(c.pool[id].iv.Start)
	if i >= len(c.segs) || c.segs[i].id != id {
		panic(fmt.Sprintf("cache: segment %v not found in directory", c.pool[id].iv))
	}
	c.removeAt(i)
}

// checkInvariants panics if internal bookkeeping diverged; used in tests.
func (c *LRU) checkInvariants() {
	var total int64
	var set dataspace.Set
	for i, ref := range c.segs {
		if ref.iv.Empty() {
			panic("cache: empty segment")
		}
		if ref.iv != c.pool[ref.id].iv {
			panic("cache: directory interval diverged from pool")
		}
		if i > 0 && c.segs[i-1].iv.End > ref.iv.Start {
			panic("cache: segments overlap or unsorted")
		}
		total += ref.iv.Len()
		set = set.Add(ref.iv)
	}
	if total != c.used {
		panic(fmt.Sprintf("cache: used=%d but segments hold %d", c.used, total))
	}
	if c.used > c.capacity {
		panic("cache: over capacity")
	}
	if set.Len() != c.set.Len() {
		panic("cache: set diverged from segments")
	}
	n := 0
	prev := noSeg
	for id := c.head; id != noSeg; id = c.pool[id].next {
		if c.pool[id].prev != prev {
			panic("cache: recency list back-link broken")
		}
		prev = id
		n++
	}
	if prev != c.tail {
		panic("cache: recency list tail mismatch")
	}
	if n != len(c.segs) {
		panic("cache: LRU list and directory out of sync")
	}
}
