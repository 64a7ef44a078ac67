// Package sched implements the paper's scheduling policies behind a common
// plugin interface (the paper's "plugin model, enabling new scheduling
// policies to be easily added"):
//
//	farm           processing-farm FCFS baseline (§3.1)
//	splitting      job splitting across idle nodes, no caching (Table 1)
//	cacheoriented  cache-oriented job splitting, FIFO across jobs (Table 2)
//	outoforder     out-of-order, cache-affine scheduling (Table 3)
//	               (+ optional data replication, §4.2)
//	delayed        delayed scheduling with periods and stripes (Table 4)
//	adaptive       adaptive-delay scheduling (§6)
//	partitioned    static data partitioning (related work [16])
//	affinefarm     cache-affine farm, no job splitting
//
// The plugin seam is the Policy interface: a program adds a policy by
// implementing it and handing its constructor to lab.Scenario.NewPolicy.
// New and Check resolve names against a fixed table of the built-ins
// above, the only policies spec files and the physchedd service can name.
package sched

import (
	"physched/internal/cache"
	"physched/internal/cluster"
	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
)

// Policy is a scheduling policy plugin. The runner wires JobArrived to the
// workload stream and SubjobDone to the cluster's completion callback.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// ClusterConfig returns the data-path features the policy needs.
	ClusterConfig() cluster.Config

	// Attach binds the policy to a cluster before the simulation starts.
	Attach(c *cluster.Cluster)

	// JobArrived admits a new job.
	JobArrived(j *job.Job)

	// SubjobDone reacts to a subjob completing on node n.
	SubjobDone(n *cluster.Node, sj *job.Subjob)
}

// NodeStateObserver is optionally implemented by a Policy that wants to
// own its reaction to node churn (cluster.FaultModel). NodeDown receives
// the subjob the failing node lost, or nil when it was idle; the policy
// then owns the lost work and must eventually re-dispatch it. NodeUp
// fires on repair and late join.
//
// Policies that do not implement it keep working unchanged: a down node
// reports Idle() == false and Running() == nil, so idle scans skip it and
// preemption logic never touches it, and the lab's generic requeue
// adapter re-dispatches lost subjobs on the next node that goes idle.
type NodeStateObserver interface {
	NodeDown(n *cluster.Node, lost *job.Subjob)
	NodeUp(n *cluster.Node)
}

// base carries the state shared by all policies.
type base struct {
	c      *cluster.Cluster
	eng    *sim.Engine
	params model.Params

	// cachePieces scratch, reused across calls. Policies consume the
	// returned slice before partitioning again, so one pair per policy
	// suffices.
	rawScratch   []cache.NodePiece
	pieceScratch []cache.NodePiece
}

func (b *base) Attach(c *cluster.Cluster) {
	b.c = c
	b.eng = c.Engine()
	b.params = c.Params()
}

// now returns the current simulated time.
func (b *base) now() float64 { return b.eng.Now() }

// minSize is the smallest subjob the policies may create.
func (b *base) minSize() int64 { return b.params.MinSubjobEvents }

// arena returns the run's shared job/subjob arena.
func (b *base) arena() *job.Arena { return b.c.Arena() }

// cachePieces splits a job's range along the cluster cache-content
// boundaries so that every piece is either fully cached on one node or
// cached nowhere (the splitting rule shared by Tables 2, 3 and 4), then
// merges pieces smaller than the policy minimum into their successors.
// The returned slice lives in the policy's scratch buffer: it is valid
// only until the next cachePieces call on the same policy.
func (b *base) cachePieces(iv dataspace.Interval, minEvents int64) []cache.NodePiece {
	c := b.c
	raw := c.Index().AppendPartitionByNode(iv, b.rawScratch[:0])
	b.rawScratch = raw
	out := b.pieceScratch[:0]
	for _, p := range raw {
		pc := cache.NodePiece{Interval: p.Interval, Node: p.Node}
		if n := len(out); n > 0 && out[n-1].Interval.Len() < minEvents {
			// Too-small predecessor: absorb it. The merged piece counts as
			// cached only if both parts were on the same node.
			prev := out[n-1]
			pc.Interval = dataspace.Iv(prev.Interval.Start, p.Interval.End)
			if prev.Node != p.Node {
				pc.Node = pickNode(c, prev, p)
			}
			out[n-1] = pc
			continue
		}
		out = append(out, pc)
	}
	// A trailing too-small piece merges backwards.
	if n := len(out); n >= 2 && out[n-1].Interval.Len() < minEvents {
		prev, last := out[n-2], out[n-1]
		merged := cache.NodePiece{
			Interval: dataspace.Iv(prev.Interval.Start, last.Interval.End),
			Node:     prev.Node,
		}
		if prev.Node != last.Node {
			merged.Node = pickNode(c, prev, last)
		}
		out = append(out[:n-2], merged)
	}
	b.pieceScratch = out
	return out
}

// pickNode attributes a merged piece to the node caching more of it, or to
// no node when neither dominates.
func pickNode(c *cluster.Cluster, a, b cache.NodePiece) int {
	merged := dataspace.Iv(a.Interval.Start, b.Interval.End)
	best, amt := c.Index().BestNodeFor(merged)
	if amt*2 >= merged.Len() {
		return best
	}
	return -1
}
