package sched

import (
	"physched/internal/cluster"
	"physched/internal/dataspace"
	"physched/internal/job"
)

// Splitting is the job-splitting policy of Table 1: jobs are split into
// subjobs across idle nodes so the maximum possible number of nodes is busy
// at all times, but node disks are not used as caches — every event is
// streamed from tertiary storage. Jobs start in FCFS order; an arriving job
// takes one node away from the running job with the largest
// nodes-per-remaining-event ratio when nothing is idle.
type Splitting struct {
	base
	queue   jobFIFO
	running []*job.Job // jobs started and not finished, in start order

	idleScratch []*cluster.Node
	partScratch []dataspace.Interval
}

// NewSplitting returns the job-splitting policy.
func NewSplitting() *Splitting { return &Splitting{} }

func (*Splitting) Name() string { return "splitting" }

func (*Splitting) ClusterConfig() cluster.Config { return cluster.Config{} }

func (s *Splitting) JobArrived(j *job.Job) {
	s.idleScratch = s.c.AppendIdle(s.idleScratch[:0])
	if idle := s.idleScratch; len(idle) > 0 {
		s.startOnIdle(j, idle)
		return
	}
	if donor := s.donorNode(); donor != nil {
		// Suspend one subjob of the most over-provisioned job and give the
		// freed node to the new job (Table 1, second bullet).
		if rem := s.c.Preempt(donor); rem != nil {
			rem.Job.Suspended = append(rem.Job.Suspended, rem)
		}
		s.track(j)
		s.c.Dispatch(donor, s.arena().NewSubjob(j, j.Range, -1))
		return
	}
	s.queue.Push(j)
}

// startOnIdle splits j across the idle nodes in equal parts.
func (s *Splitting) startOnIdle(j *job.Job, idle []*cluster.Node) {
	s.track(j)
	s.partScratch = job.AppendSplitEqual(s.partScratch[:0], j.Range, len(idle), s.minSize())
	for i, iv := range s.partScratch {
		s.c.Dispatch(idle[i], s.arena().NewSubjob(j, iv, -1))
	}
}

// donorNode picks the node to take from the running job with the largest
// number of nodes per event still to process; nil when every running job
// holds a single node.
func (s *Splitting) donorNode() *cluster.Node {
	var bestJob *job.Job
	var bestRatio float64
	for _, j := range s.running {
		if j.Running < 2 {
			continue
		}
		rem := j.Remaining()
		if rem <= 0 {
			continue
		}
		ratio := float64(j.Running) / float64(rem)
		if bestJob == nil || ratio > bestRatio {
			bestJob, bestRatio = j, ratio
		}
	}
	if bestJob == nil {
		return nil
	}
	// Among the nodes running bestJob, free the one with the most remaining
	// work, so the suspended chunk is worth resuming later.
	var donor *cluster.Node
	var donorRem int64
	for _, n := range s.c.Nodes() {
		if r := n.Running(); r != nil && r.Job == bestJob {
			if rem := s.c.RemainingEvents(n); donor == nil || rem > donorRem {
				donor, donorRem = n, rem
			}
		}
	}
	return donor
}

func (s *Splitting) SubjobDone(n *cluster.Node, sj *job.Subjob) {
	s.prune()
	j := sj.Job
	if j.Finished {
		// Job end (Table 1): first queued job gets the node, whole.
		if !s.queue.Empty() {
			nj := s.queue.Pop()
			s.track(nj)
			s.c.Dispatch(n, s.arena().NewSubjob(nj, nj.Range, -1))
			return
		}
	} else if len(j.Suspended) > 0 {
		// Subjob end: resume a suspended subjob of the same job.
		sub := j.Suspended[len(j.Suspended)-1]
		j.Suspended = j.Suspended[:len(j.Suspended)-1]
		s.c.Dispatch(n, sub)
		return
	}
	s.allocateToRunning(n)
}

// allocateToRunning gives an idle node to already admitted work: first any
// suspended subjob (oldest job first), then a half of the largest running
// subjob in the cluster. The node stays idle only when no splittable work
// exists.
func (s *Splitting) allocateToRunning(n *cluster.Node) {
	for _, j := range s.running {
		if len(j.Suspended) > 0 {
			sub := j.Suspended[len(j.Suspended)-1]
			j.Suspended = j.Suspended[:len(j.Suspended)-1]
			s.c.Dispatch(n, sub)
			return
		}
	}
	var donor *cluster.Node
	var donorRem int64
	for _, m := range s.c.Nodes() {
		if m.Idle() {
			continue
		}
		if rem := s.c.RemainingEvents(m); rem > donorRem {
			donor, donorRem = m, rem
		}
	}
	if donor == nil || donorRem/2 < s.minSize() {
		return
	}
	if tail := s.c.SplitRunning(donor, donorRem/2, s.minSize()); tail != nil {
		tail.Origin = -1
		s.c.Dispatch(n, tail)
	}
}

func (s *Splitting) track(j *job.Job) { s.running = append(s.running, j) }

// prune drops finished jobs from the running list: every job that ended
// at a SubjobDone, and any whose last events a preemption completed.
func (s *Splitting) prune() {
	kept := s.running[:0]
	for _, j := range s.running {
		if !j.Finished {
			kept = append(kept, j)
		}
	}
	s.running = kept
}
