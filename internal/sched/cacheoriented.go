package sched

import (
	"physched/internal/cluster"
	"physched/internal/dataspace"
	"physched/internal/job"
)

// CacheOriented is the cache-oriented job-splitting policy of Table 2.
// Data arriving from tertiary storage is cached on node disks; jobs are
// split along cache-content boundaries so every subjob is either fully
// cached on one node or cached nowhere, and subjobs are steered to the
// nodes caching their data. Jobs still start in FIFO order: an arriving job
// always gets a node when fewer jobs than nodes are running, preempting the
// running subjob with the least use for its node's cache.
type CacheOriented struct {
	base
	queue   jobFIFO
	running []*job.Job

	idleScratch   []*cluster.Node
	subsScratch   []*job.Subjob
	assignScratch []int   // idle-node index -> subjob index, -1 when none
	usedScratch   []bool  // subjob index -> already assigned
	amtScratch    []int64 // (idle node, subjob) -> events cached, row-major
}

// NewCacheOriented returns the cache-oriented job-splitting policy.
func NewCacheOriented() *CacheOriented { return &CacheOriented{} }

func (*CacheOriented) Name() string { return "cacheoriented" }

func (*CacheOriented) ClusterConfig() cluster.Config {
	return cluster.Config{Caching: true}
}

func (p *CacheOriented) JobArrived(j *job.Job) {
	p.idleScratch = p.c.AppendIdle(p.idleScratch[:0])
	if idle := p.idleScratch; len(idle) > 0 {
		p.track(j)
		p.startOnIdle(j, idle)
		return
	}
	if donor := p.donorNode(j); donor != nil {
		if rem := p.c.Preempt(donor); rem != nil {
			rem.Job.Suspended = append(rem.Job.Suspended, rem)
		}
		p.track(j)
		p.startOnNode(j, donor)
		return
	}
	p.queue.Push(j)
}

// startOnIdle splits j by cache boundaries and hands the subjobs to the
// idle nodes, preferring exact cache placement; leftover subjobs are
// suspended, missing ones are created by subdividing the largest.
func (p *CacheOriented) startOnIdle(j *job.Job, idle []*cluster.Node) {
	subs := p.splitByCache(j)
	// Subdivide the largest subjobs until there is one per idle node (or
	// subjobs cannot shrink further).
	for len(subs) < len(idle) {
		li := largestSubjob(subs)
		if li < 0 || subs[li].Events()/2 < p.minSize() {
			break
		}
		a, b := subs[li].Range.Halves()
		orig := subs[li]
		subs[li] = p.arena().NewSubjob(j, a, orig.Origin)
		subs = append(subs, p.arena().NewSubjob(j, b, -1))
	}
	p.subsScratch = subs
	assigned := p.assignByAffinity(subs, idle)
	// Dispatch in idle-node order so the dispatch sequence — and through
	// event tie-breaking the whole run — stays deterministic.
	for ni, n := range idle {
		if si := assigned[ni]; si >= 0 {
			p.c.Dispatch(n, subs[si])
		}
	}
	for si, sub := range subs {
		if !p.usedScratch[si] {
			j.Suspended = append(j.Suspended, sub)
		}
	}
}

// startOnNode starts j on a single freed node with its most suitable
// subjob; the rest is suspended.
func (p *CacheOriented) startOnNode(j *job.Job, n *cluster.Node) {
	subs := p.splitByCache(j)
	best := 0
	var bestAmt int64 = -1
	for i, sub := range subs {
		if amt := p.c.Index().CachedOn(n.ID, sub.Range); amt > bestAmt {
			best, bestAmt = i, amt
		}
	}
	for i, sub := range subs {
		if i != best {
			j.Suspended = append(j.Suspended, sub)
		}
	}
	p.c.Dispatch(n, subs[best])
}

// splitByCache cuts j's range along cluster cache boundaries. The returned
// slice lives in the policy's scratch buffer (the subjobs themselves are
// arena-allocated and stable): it is valid until the next splitByCache call.
func (p *CacheOriented) splitByCache(j *job.Job) []*job.Subjob {
	pieces := p.cachePieces(j.Range, p.minSize())
	subs := p.subsScratch[:0]
	for _, pc := range pieces {
		subs = append(subs, p.arena().NewSubjob(j, pc.Interval, pc.Node))
	}
	p.subsScratch = subs
	return subs
}

// donorNode selects the node to preempt for an arriving job: among jobs
// running on several nodes, the node whose running subjob has the smallest
// cached share of its remaining work ("we try to replace a subjob working
// with non cached data", Table 2). Returns nil when all running jobs hold
// one node.
func (p *CacheOriented) donorNode(arriving *job.Job) *cluster.Node {
	var donor *cluster.Node
	var donorShare float64 = 2 // above any real share
	for _, n := range p.c.Nodes() {
		r := n.Running()
		if r == nil || r.Job.Running < 2 {
			continue
		}
		rem := p.c.RemainingEvents(n)
		if rem == 0 {
			continue
		}
		lo := r.Range.End - rem
		remRange := dataspace.Iv(lo, r.Range.End)
		share := float64(n.Cache.CachedLen(remRange)) / float64(rem)
		if share < donorShare {
			donor, donorShare = n, share
		}
	}
	return donor
}

func (p *CacheOriented) SubjobDone(n *cluster.Node, sj *job.Subjob) {
	p.prune()
	j := sj.Job
	if !j.Finished {
		// Subjob end: resume the same job's suspended subjob with the most
		// data cached on this node.
		if sub := popBestSuspended(p.c, j, n); sub != nil {
			p.c.Dispatch(n, sub)
			return
		}
		p.splitForNode(n)
		return
	}
	// Job end: first queued job, else the most suitable suspended subjob of
	// any running job, else split a running subjob. The prune above
	// already dropped j from the running list.
	if !p.queue.Empty() {
		nj := p.queue.Pop()
		p.track(nj)
		p.startOnNode(nj, n)
		return
	}
	var bestJob *job.Job
	var bestAmt int64 = -1
	for _, rj := range p.running {
		if len(rj.Suspended) == 0 {
			continue
		}
		for _, sub := range rj.Suspended {
			if amt := p.c.Index().CachedOn(n.ID, sub.Range); amt > bestAmt {
				bestJob, bestAmt = rj, amt
			}
		}
	}
	if bestJob != nil {
		if sub := popBestSuspended(p.c, bestJob, n); sub != nil {
			p.c.Dispatch(n, sub)
			return
		}
	}
	p.splitForNode(n)
}

// splitForNode gives idle node n half of the running subjob with the
// largest caching benefit: the half that would land on n is the one whose
// data is best cached on n; ties go to the largest remaining subjob.
func (p *CacheOriented) splitForNode(n *cluster.Node) {
	var donor *cluster.Node
	var donorRem, donorBenefit int64 = 0, -1
	for _, m := range p.c.Nodes() {
		if m.Idle() {
			continue
		}
		rem := p.c.RemainingEvents(m)
		if rem/2 < p.minSize() {
			continue
		}
		r := m.Running()
		if r == nil {
			continue // down node: not idle, yet running nothing
		}
		tail := dataspace.Iv(r.Range.End-rem/2, r.Range.End)
		benefit := p.c.Index().CachedOn(n.ID, tail)
		if benefit > donorBenefit || (benefit == donorBenefit && rem > donorRem) {
			donor, donorRem, donorBenefit = m, rem, benefit
		}
	}
	if donor == nil {
		return
	}
	if tail := p.c.SplitRunning(donor, donorRem/2, p.minSize()); tail != nil {
		p.c.Dispatch(n, tail)
	}
}

func (p *CacheOriented) track(j *job.Job) { p.running = append(p.running, j) }

func (p *CacheOriented) prune() {
	kept := p.running[:0]
	for _, j := range p.running {
		if !j.Finished {
			kept = append(kept, j)
		}
	}
	p.running = kept
}

// popBestSuspended removes and returns the suspended subjob of j with the
// most data cached on n; nil when j has no suspended subjobs.
func popBestSuspended(c *cluster.Cluster, j *job.Job, n *cluster.Node) *job.Subjob {
	if len(j.Suspended) == 0 {
		return nil
	}
	best := 0
	var bestAmt int64 = -1
	for i, sub := range j.Suspended {
		if amt := c.Index().CachedOn(n.ID, sub.Range); amt > bestAmt {
			best, bestAmt = i, amt
		}
	}
	sub := j.Suspended[best]
	j.Suspended = append(j.Suspended[:best], j.Suspended[best+1:]...)
	return sub
}

// assignByAffinity matches subjobs to idle nodes maximising cached data:
// repeatedly picks the (node, subjob) pair with the highest cached amount
// (first maximum in idle-then-subs order, so the result is deterministic).
// The returned slice maps idle-node index to subjob index (-1 when the node
// gets nothing); it, usedScratch and amtScratch are valid until the next
// call.
func (p *CacheOriented) assignByAffinity(subs []*job.Subjob, idle []*cluster.Node) []int {
	assigned := p.assignScratch[:0]
	for range idle {
		assigned = append(assigned, -1)
	}
	p.assignScratch = assigned
	used := p.usedScratch[:0]
	for range subs {
		used = append(used, false)
	}
	p.usedScratch = used
	// The caches do not change while the match runs: read each cached
	// amount once.
	amts := p.amtScratch[:0]
	for _, n := range idle {
		for _, sub := range subs {
			amts = append(amts, p.c.Index().CachedOn(n.ID, sub.Range))
		}
	}
	p.amtScratch = amts
	for count := 0; count < len(idle) && count < len(subs); count++ {
		bn, bs := -1, -1
		var bAmt int64 = -1
		for ni := range idle {
			if assigned[ni] >= 0 {
				continue
			}
			for si, amt := range amts[ni*len(subs) : (ni+1)*len(subs)] {
				if !used[si] && amt > bAmt {
					bn, bs, bAmt = ni, si, amt
				}
			}
		}
		if bn < 0 {
			break
		}
		assigned[bn] = bs
		used[bs] = true
	}
	return assigned
}

// largestSubjob returns the index of the largest subjob, or -1.
func largestSubjob(subs []*job.Subjob) int {
	best := -1
	var bestLen int64
	for i, s := range subs {
		if s.Events() > bestLen {
			best, bestLen = i, s.Events()
		}
	}
	return best
}
