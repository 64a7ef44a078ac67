// Node dynamics: real PC farms lose and regain nodes constantly, while
// the paper's evaluation assumes a cluster that never fails. This file
// adds churn as first-class simulation events — stochastic failures
// (homogeneous Poisson per node, optionally day/night-modulated via
// Lewis–Shedler thinning, the same machinery internal/workload uses for
// inhomogeneous arrivals), exponential repairs, permanent decommissions
// and late node joins — plus the cluster-side mechanics every model
// variant shares: killing the subjob running on a failing node, wasted
// work accounting, and the optional loss of the node's disk cache.
//
// Scheduling policies observe churn through the interfaces they already
// use: a down node reports Idle() == false and Running() == nil, so idle
// scans skip it and preemption logic never touches it. Lost subjobs are
// handed to the Cluster.NodeDown callback; internal/lab requeues them on
// the next idle node unless the policy takes ownership itself (see
// sched.NodeStateObserver).
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"physched/internal/cache"
	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/stats"
	"physched/internal/trace"
)

// Default fault-model time constants, in hours. They are also the values
// spec canonicalisation fills in, so a spec naming them explicitly hashes
// identically to one leaving them to default.
const (
	// DefaultRepairHours is the mean repair time when RepairHours is zero.
	DefaultRepairHours = 4
	// DefaultJoinHours is the mean time until a spare node joins when
	// JoinHours is zero.
	DefaultJoinHours = 24
)

// FaultModel configures node churn. The zero value disables it entirely;
// a model with MTBFHours > 0 fails nodes stochastically, and SpareNodes
// adds initially-down nodes that join the cluster late. All randomness
// comes from the *rand.Rand passed to InstallFaults, never from the
// engine's source, so enabling faults does not shift workload draws.
type FaultModel struct {
	// MTBFHours is each up node's mean time between failures, in hours of
	// simulated time. Zero disables failures (spares may still join).
	MTBFHours float64

	// RepairHours is the mean repair time, exponentially distributed.
	// Zero means DefaultRepairHours.
	RepairHours float64

	// DayNightSwing in [0,1) modulates the failure rate over a 24-hour
	// cycle — rate(t) = (1/MTBF)·(1 + swing·sin(2πt/day)) — realised by
	// thinning, mirroring workload.DayNight. Overnight batch windows and
	// daytime operator activity make real failure processes periodic.
	DayNightSwing float64

	// CacheLoss wipes the failing node's disk cache: the failure takes
	// the disk (or its filesystem) with it. When false the cache survives
	// the outage, as after a plain reboot.
	CacheLoss bool

	// DecommissionProb is the probability, in [0,1], that a failure is
	// permanent: the node never repairs and leaves the cluster for good.
	DecommissionProb float64

	// SpareNodes is the number of extra nodes beyond Params.Nodes that
	// start down and join the running cluster later.
	SpareNodes int

	// JoinHours is the mean time until a spare node joins, exponentially
	// distributed. Zero means DefaultJoinHours.
	JoinHours float64
}

// Enabled reports whether the model introduces any node dynamics.
func (m FaultModel) Enabled() bool { return m.MTBFHours > 0 || m.SpareNodes > 0 }

// WithDefaults returns the model with the named defaults filled in. A
// disabled model stays zero.
func (m FaultModel) WithDefaults() FaultModel {
	if m.MTBFHours > 0 && m.RepairHours == 0 {
		m.RepairHours = DefaultRepairHours
	}
	if m.SpareNodes > 0 && m.JoinHours == 0 {
		m.JoinHours = DefaultJoinHours
	}
	return m
}

// Validate reports the first out-of-range field.
func (m FaultModel) Validate() error {
	switch {
	case m.MTBFHours < 0:
		return fmt.Errorf("cluster: MTBFHours must be non-negative, got %v", m.MTBFHours)
	case m.RepairHours < 0:
		return fmt.Errorf("cluster: RepairHours must be non-negative, got %v", m.RepairHours)
	case m.DayNightSwing < 0 || m.DayNightSwing >= 1:
		return fmt.Errorf("cluster: DayNightSwing must be in [0,1), got %v", m.DayNightSwing)
	case m.DecommissionProb < 0 || m.DecommissionProb > 1:
		return fmt.Errorf("cluster: DecommissionProb must be in [0,1], got %v", m.DecommissionProb)
	case m.SpareNodes < 0:
		return fmt.Errorf("cluster: SpareNodes must be non-negative, got %d", m.SpareNodes)
	case m.JoinHours < 0:
		return fmt.Errorf("cluster: JoinHours must be non-negative, got %v", m.JoinHours)
	// Inert non-zero blocks are rejected rather than silently ignored: a
	// spec with repair parameters but no failure rate almost certainly
	// forgot MTBFHours, and accepting it would also give two identical
	// simulations different content hashes.
	case m.DayNightSwing > 0 && m.MTBFHours == 0:
		return fmt.Errorf("cluster: DayNightSwing needs MTBFHours > 0")
	case m.MTBFHours == 0 && (m.RepairHours != 0 || m.CacheLoss || m.DecommissionProb != 0):
		return fmt.Errorf("cluster: RepairHours, CacheLoss and DecommissionProb need MTBFHours > 0")
	case m.SpareNodes == 0 && m.JoinHours != 0:
		return fmt.Errorf("cluster: JoinHours needs SpareNodes > 0")
	}
	return nil
}

// InstallFaults schedules the model's node dynamics on the cluster's
// engine: one failure process per node plus the spare-node joins. Call it
// after New and before the simulation starts. All draws come from rng in
// event order, so runs are deterministic per (scenario, seed).
func InstallFaults(c *Cluster, m FaultModel, rng *rand.Rand) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if !m.Enabled() {
		return nil
	}
	m = m.WithDefaults()
	fi := &faultInjector{c: c, m: m, rng: rng}
	for _, n := range c.nodes {
		fi.scheduleFailure(n)
	}
	for i := 0; i < m.SpareNodes; i++ {
		n := c.AddNode()
		d := stats.Exponential(rng, m.JoinHours*model.Hour)
		c.eng.After(d, func() { fi.join(n) })
	}
	return nil
}

// faultInjector drives one FaultModel on one cluster.
type faultInjector struct {
	c   *Cluster
	m   FaultModel
	rng *rand.Rand
}

// scheduleFailure arms the next failure of an up node. Exactly one
// failure is armed per up-period, so a failure can never fire on a node
// that is already down.
func (fi *faultInjector) scheduleFailure(n *Node) {
	if fi.m.MTBFHours <= 0 {
		return
	}
	fi.c.eng.After(fi.nextFailureDelay(), func() { fi.fail(n) })
}

// nextFailureDelay draws the time to the node's next failure: exponential
// with mean MTBF, or — with DayNightSwing set — the next arrival of an
// inhomogeneous Poisson process thinned against the peak rate, the same
// stats machinery workload.NewInhomogeneous uses for job arrivals.
func (fi *faultInjector) nextFailureDelay() float64 {
	mean := fi.m.MTBFHours * model.Hour
	if fi.m.DayNightSwing == 0 {
		return stats.Exponential(fi.rng, mean)
	}
	rate := 1 / mean
	now := fi.c.eng.Now()
	proc := stats.NewThinnedPoisson(fi.rng, func(t float64) float64 {
		return rate * (1 + fi.m.DayNightSwing*math.Sin(2*math.Pi*t/model.Day))
	}, rate*(1+fi.m.DayNightSwing), now)
	return proc.Next() - now
}

func (fi *faultInjector) fail(n *Node) {
	if !n.up {
		return // decommissioned concurrently; nothing to fail
	}
	if fi.m.DecommissionProb > 0 && fi.rng.Float64() < fi.m.DecommissionProb {
		fi.c.DecommissionNode(n) // permanent: no repair is ever scheduled
		return
	}
	fi.c.FailNode(n, fi.m.CacheLoss)
	d := stats.Exponential(fi.rng, fi.m.RepairHours*model.Hour)
	fi.c.eng.After(d, func() { fi.repair(n) })
}

func (fi *faultInjector) repair(n *Node) {
	fi.c.RepairNode(n)
	fi.scheduleFailure(n)
}

func (fi *faultInjector) join(n *Node) {
	fi.c.JoinNode(n)
	fi.scheduleFailure(n)
}

// FailNode takes an up node down at the current instant. The subjob
// running on it, if any, is killed: the computation it performed since
// dispatch is wasted (crash results are lost with the node's memory) and
// a subjob covering its full original range is returned for
// re-execution, also passed to the NodeDown callback. Data the killed
// subjob had already streamed stays accounted — and, unless wipeCache,
// stays cached — because it physically moved before the crash.
// Failing a down node panics: it indicates a broken failure process.
func (c *Cluster) FailNode(n *Node, wipeCache bool) *job.Subjob {
	if !n.up {
		panic(fmt.Sprintf("cluster: failing down node %d", n.ID))
	}
	var lost *job.Subjob
	if n.run != nil {
		lost = c.killRunning(n)
	}
	n.up = false
	c.stats.Failures++
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.NodeDown, Node: n.ID})
	if wipeCache {
		n.Cache.Clear()
	}
	if c.NodeDown != nil {
		c.NodeDown(n, lost)
	}
	return lost
}

// killRunning tears down the subjob running on n without crediting any of
// its work: unlike Preempt, which completes the events processed so far,
// a crash loses them. The returned subjob covers the original range.
func (c *Cluster) killRunning(n *Node) *job.Subjob {
	r := n.run
	r.ev.Cancel()
	p := r.pieces[r.pieceIdx]
	elapsed := c.eng.Now() - r.pieceStart
	k := int64(elapsed/p.PerEvent + 1e-9)
	if k > p.Range.Len() {
		k = p.Range.Len()
	}
	done := dataspace.Iv(p.Range.Start, p.Range.Start+k)
	// The prefix of the current piece was fetched before the crash:
	// account its data path even though the computation is discarded.
	c.accountSpan(n, p, done)
	wasted := done.Len()
	for i := 0; i < r.pieceIdx; i++ {
		wasted += r.pieces[i].Range.Len()
	}
	sj := r.Subjob
	j := sj.Job
	n.run = nil
	c.releaseRunning(r)
	j.Running--
	c.stats.EventsLost += wasted
	c.stats.Reexecutions++
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.SubjobLost, JobID: j.ID, Node: n.ID, Events: wasted})
	return c.arena.CloneSubjob(sj, sj.Range)
}

// DecommissionNode fails an up node permanently: it is marked
// decommissioned before NodeDown fires — observers distinguish the two
// via Node.Decommissioned — and its cache is wiped unconditionally,
// since a disk that will never power on again must stop attracting
// cache-affine placements and remote reads. The lost subjob, if any, is
// returned like FailNode's.
func (c *Cluster) DecommissionNode(n *Node) *job.Subjob {
	n.decommissioned = true
	c.stats.Decommissions++
	return c.FailNode(n, true)
}

// RepairNode brings a down node back up. Its cache holds whatever
// survived the failure. Repairing an up node panics.
func (c *Cluster) RepairNode(n *Node) {
	c.bringUp(n, "repair")
	c.stats.Repairs++
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.NodeUp, Node: n.ID})
	if c.NodeUp != nil {
		c.NodeUp(n)
	}
}

// JoinNode brings an initially-down spare node (see AddNode) into
// service for the first time.
func (c *Cluster) JoinNode(n *Node) {
	c.bringUp(n, "join")
	c.stats.NodeJoins++
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.NodeUp, Node: n.ID})
	if c.NodeUp != nil {
		c.NodeUp(n)
	}
}

func (c *Cluster) bringUp(n *Node, op string) {
	if n.up {
		panic(fmt.Sprintf("cluster: %s of up node %d", op, n.ID))
	}
	if n.decommissioned {
		panic(fmt.Sprintf("cluster: %s of decommissioned node %d", op, n.ID))
	}
	n.up = true
}

// AddNode appends a new, initially-down node with an empty cache — the
// spare-capacity form of late join. The node becomes schedulable once
// JoinNode brings it up.
func (c *Cluster) AddNode() *Node {
	capEvents := c.params.CacheEvents()
	if !c.cfg.Caching {
		capEvents = 0
	}
	n := &Node{ID: len(c.nodes), Cache: c.index.Add(capEvents, c.cfg.Eviction)}
	c.setNodeTimes(n)
	c.nodes = append(c.nodes, n)
	c.counts = append(c.counts, cache.CountMap{})
	return n
}
