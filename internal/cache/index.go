package cache

import "physched/internal/dataspace"

// Index is the master node's view of all node disk caches. The paper's
// scheduler "maintains the job and subjob queues as well as the state of
// all disk caches in the cluster"; Index is that state.
type Index struct {
	caches []*LRU

	curScratch []int // per-node set cursors for AppendPartitionByNode
}

// NewIndex builds an index over n node caches, each with the given
// capacity in events and eviction policy.
func NewIndex(n int, capacityEvents int64, policy EvictPolicy) *Index {
	ix := &Index{caches: make([]*LRU, n)}
	for i := range ix.caches {
		ix.caches[i] = NewLRU(capacityEvents, policy)
	}
	return ix
}

// Nodes returns the number of node caches.
func (ix *Index) Nodes() int { return len(ix.caches) }

// Add appends one more node cache — a node joining the cluster late —
// and returns it.
func (ix *Index) Add(capacityEvents int64, policy EvictPolicy) *LRU {
	c := NewLRU(capacityEvents, policy)
	ix.caches = append(ix.caches, c)
	return c
}

// Node returns the cache of node i.
func (ix *Index) Node(i int) *LRU { return ix.caches[i] }

// NodePiece is a maximal run of an interval attributed to a single node's
// cache, or to no cache (Node == -1).
type NodePiece struct {
	Interval dataspace.Interval
	Node     int // -1 when the piece is cached nowhere
}

// AppendPartitionByNode splits iv into contiguous pieces such that each
// piece is either fully cached on the designated node or cached nowhere,
// and appends them to dst. When several nodes cache the same events, the
// piece goes to the node caching the longest run starting at the piece's
// first event, which keeps the attribution deterministic and favours large
// fully-cached subjobs (the paper's splitting rule: "data processed by a
// given subjob should always either be fully cached on a node or not
// cached at all"). The per-dispatch planning paths pass a reused buffer,
// so partitioning allocates nothing in steady state.
func (ix *Index) AppendPartitionByNode(iv dataspace.Interval, dst []NodePiece) []NodePiece {
	// pos only ever advances, so each node's cache is swept left to right:
	// a per-node cursor turns the repeated per-piece binary searches into
	// amortised-O(1) linear advances. Cursor -1 = not positioned yet.
	if cap(ix.curScratch) < len(ix.caches) {
		ix.curScratch = make([]int, len(ix.caches))
	}
	cur := ix.curScratch[:len(ix.caches)]
	for i := range cur {
		cur[i] = -1
	}
	pos := iv.Start
	for pos < iv.End {
		rest := dataspace.Iv(pos, iv.End)
		bestNode, bestEnd := -1, pos
		var nearestStart int64 = iv.End
		for n, c := range ix.caches {
			first, next := c.cachedFirstRunFrom(rest, cur[n])
			cur[n] = next
			if first.Empty() {
				continue
			}
			if first.Start == pos {
				if first.End > bestEnd {
					bestNode, bestEnd = n, first.End
				}
			} else if first.Start < nearestStart {
				nearestStart = first.Start
			}
		}
		if bestNode >= 0 {
			dst = append(dst, NodePiece{dataspace.Iv(pos, bestEnd), bestNode})
			pos = bestEnd
			continue
		}
		dst = append(dst, NodePiece{dataspace.Iv(pos, nearestStart), -1})
		pos = nearestStart
	}
	return dst
}

// CachedOn returns how many events of iv are cached on node n.
func (ix *Index) CachedOn(n int, iv dataspace.Interval) int64 {
	return ix.caches[n].CachedLen(iv)
}

// BestNodeFor returns the node caching the largest part of iv and that
// amount; (-1, 0) when no node caches any of it.
func (ix *Index) BestNodeFor(iv dataspace.Interval) (int, int64) {
	best, bestAmt := -1, int64(0)
	for n, c := range ix.caches {
		if amt := c.CachedLen(iv); amt > bestAmt {
			best, bestAmt = n, amt
		}
	}
	return best, bestAmt
}
