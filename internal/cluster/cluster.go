// Package cluster is the discrete-event model of the processing cluster:
// identical single-CPU nodes with disk caches, a master holding the global
// cache index, and the shared tertiary storage. It executes subjobs,
// supports preemption and in-place splitting of running subjobs, and keeps
// the per-job accounting (first start, processed events, completion) that
// the metrics layer consumes.
//
// Execution model: a dispatched subjob's event range is partitioned into
// pieces by data source — locally cached (disk rate), cached on another
// node (remote read, only when the configuration allows it), or tertiary
// storage. Pieces run sequentially; transfer and computation do not
// overlap, so the per-event wall time is CPU time plus transfer time, the
// model under which the paper's derived constants are mutually consistent
// (see internal/model).
package cluster

import (
	"fmt"

	"physched/internal/cache"
	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
	"physched/internal/trace"
)

// Source identifies where a piece's event data comes from.
type Source int

const (
	// SourceCache reads from the node's local disk cache.
	SourceCache Source = iota
	// SourceRemote reads from another node's disk cache over the network.
	SourceRemote
	// SourceTape streams from the shared tertiary storage.
	SourceTape
)

func (s Source) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceRemote:
		return "remote"
	case SourceTape:
		return "tape"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Piece is a contiguous run of a subjob's range served from one source.
type Piece struct {
	Range      dataspace.Interval
	Source     Source
	RemoteNode int     // owning node for SourceRemote, else -1
	PerEvent   float64 // wall seconds per event
}

// Running is the execution state of a subjob on a node. Running objects
// (and their pieces slices and completion closures) are recycled through a
// per-cluster free list: dispatching is on the simulation's hottest path
// and must not allocate in steady state.
type Running struct {
	Subjob     *job.Subjob
	node       *Node
	pieces     []Piece
	pieceIdx   int
	pieceStart float64 // sim time the current piece began
	ev         *sim.Event
	fire       func() // piece-completion callback, allocated once
	nextFree   *Running
}

// Node is one processing node.
type Node struct {
	ID    int
	Cache *cache.LRU
	run   *Running
	up    bool // false while failed/decommissioned or before a spare joins
	// decommissioned marks a node that left the cluster permanently; it
	// implies !up forever after.
	decommissioned bool

	// Per-node event service times, precomputed from Params at node
	// creation: piece planning runs on every dispatch and the value-receiver
	// Params methods copy the whole struct per call.
	evtCached, evtTape, evtRemote model.Seconds
}

// Up reports whether the node is in service (see faults.go). Nodes of a
// fault-free cluster are always up.
func (n *Node) Up() bool { return n.up }

// Decommissioned reports whether the node left the cluster permanently
// (see Cluster.DecommissionNode). Policies use it to stop routing work
// to a partition owner that will never return.
func (n *Node) Decommissioned() bool { return n.decommissioned }

// Idle reports whether the node can accept a subjob: in service and not
// executing one. Down nodes are never idle, so the idle scans every
// policy dispatches through skip them without fault-specific code.
func (n *Node) Idle() bool { return n.up && n.run == nil }

// Running returns the subjob executing on the node, or nil.
func (n *Node) Running() *job.Subjob {
	if n.run == nil {
		return nil
	}
	return n.run.Subjob
}

// Config selects the data-path features a scheduling policy relies on.
type Config struct {
	// Caching inserts data streamed from tape into the local disk cache.
	// The processing-farm and plain job-splitting policies disable it.
	Caching bool

	// RemoteReads serves data cached on another node over the network
	// instead of re-reading it from tape (out-of-order policy, §4.2).
	RemoteReads bool

	// ReplicateAfter, when positive, replicates a remotely read segment
	// into the reader's cache once the segment's remote-access count
	// reaches this threshold (§4.2 uses 3). Zero disables replication.
	ReplicateAfter int64

	// Eviction selects the cache eviction policy (default LRU, the
	// paper's choice; see the ablation studies for FIFO).
	Eviction cache.EvictPolicy
}

// Stats aggregates the data-path and node-dynamics counters of a
// simulation run. The fault counters are omitted from the wire format
// when zero, so fault-free runs encode byte-identically to builds that
// predate node dynamics.
type Stats struct {
	EventsFromCache  int64 `json:"events_from_cache"`
	EventsFromRemote int64 `json:"events_from_remote"`
	EventsFromTape   int64 `json:"events_from_tape"`
	EventsReplicated int64 `json:"events_replicated"`
	Preemptions      int64 `json:"preemptions"`
	Dispatches       int64 `json:"dispatches"`

	// Node dynamics (see faults.go). EventsLost is the wasted work: events
	// whose computation was discarded because their node failed mid-subjob.
	// Reexecutions counts the subjobs killed by failures and re-enqueued.
	Failures      int64 `json:"failures,omitempty"`
	Repairs       int64 `json:"repairs,omitempty"`
	Decommissions int64 `json:"decommissions,omitempty"`
	NodeJoins     int64 `json:"node_joins,omitempty"`
	EventsLost    int64 `json:"events_lost,omitempty"`
	Reexecutions  int64 `json:"reexecutions,omitempty"`
}

// Cluster ties the nodes and cache index to a simulation engine. Tertiary
// storage needs no state of its own: it is the fixed per-node tape rate in
// the model parameters.
type Cluster struct {
	eng    *sim.Engine
	params model.Params
	cfg    Config
	nodes  []*Node
	index  *cache.Index
	counts []cache.CountMap // per-node remote-access counters
	stats  Stats

	freeRun *Running // recycled Running objects
	planBuf []Piece  // scratch for EstimateTime
	arena   job.Arena

	// Plan-partition scratch, reused across dispatches (planInto is not
	// reentrant; the cluster is single-threaded by construction).
	partScratch []dataspace.SetPiece
	nodeScratch []cache.NodePiece

	// SubjobDone is invoked whenever a subjob finishes on a node, after
	// all job accounting. The scheduling policy reacts to it.
	SubjobDone func(*Node, *job.Subjob)

	// JobStarted and JobDone observe job lifecycle transitions; the
	// metrics collector hooks them. Either may be nil.
	JobStarted func(*job.Job)
	JobDone    func(*job.Job)

	// NodeDown fires when a node fails (see faults.go), after the node is
	// marked down and its running subjob killed; lost is the subjob to
	// re-execute, or nil when the node was idle. NodeUp fires when a node
	// is repaired or a spare joins. Either may be nil.
	NodeDown func(n *Node, lost *job.Subjob)
	NodeUp   func(n *Node)

	// Tracer, when non-nil, records dispatches, completions and job
	// lifecycle transitions.
	Tracer *trace.Recorder
}

// New builds a cluster for the given parameters and data-path config.
// Caches are sized from params.CacheEvents(); a zero cache size yields
// diskless nodes.
func New(eng *sim.Engine, params model.Params, cfg Config) *Cluster {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	capEvents := params.CacheEvents()
	if !cfg.Caching {
		capEvents = 0
	}
	c := &Cluster{
		eng:    eng,
		params: params,
		cfg:    cfg,
		index:  cache.NewIndex(params.Nodes, capEvents, cfg.Eviction),
		counts: make([]cache.CountMap, params.Nodes),
	}
	c.nodes = make([]*Node, params.Nodes)
	for i := range c.nodes {
		c.nodes[i] = &Node{ID: i, Cache: c.index.Node(i), up: true}
		c.setNodeTimes(c.nodes[i])
	}
	return c
}

// setNodeTimes fills a node's precomputed event service times.
func (c *Cluster) setNodeTimes(n *Node) {
	n.evtCached = c.params.EventTimeCachedOn(n.ID)
	n.evtTape = c.params.EventTimeTapeOn(n.ID)
	n.evtRemote = c.params.EventTimeRemoteOn(n.ID)
}

// Engine returns the simulation engine driving the cluster.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Params returns the model parameters.
func (c *Cluster) Params() model.Params { return c.params }

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Index returns the cluster-wide cache index.
func (c *Cluster) Index() *cache.Index { return c.index }

// Stats returns the data-path counters accumulated so far.
func (c *Cluster) Stats() Stats { return c.stats }

// Arena returns the run's job/subjob arena. The cluster allocates every
// preemption/split/crash remainder from it; scheduling policies use it
// for their own subjobs so one run shares one arena.
func (c *Cluster) Arena() *job.Arena { return &c.arena }

// ReleaseCaches ends the cluster's run for its node caches: they give
// their storage back for reuse by later runs and are left empty. Only the
// run's owner may call it, once nothing will read the caches again. The
// subjob arena is released apart (Arena().Release()), because jobs the
// run did not allocate can point into it.
func (c *Cluster) ReleaseCaches() {
	for _, n := range c.nodes {
		n.Cache.Release()
	}
}

// AppendIdle appends the currently idle nodes to dst, in node order.
func (c *Cluster) AppendIdle(dst []*Node) []*Node {
	for _, n := range c.nodes {
		if n.Idle() {
			dst = append(dst, n)
		}
	}
	return dst
}

// IdleCount returns the number of idle nodes without allocating.
func (c *Cluster) IdleCount() int {
	k := 0
	for _, n := range c.nodes {
		if n.Idle() {
			k++
		}
	}
	return k
}

// FirstIdle returns the lowest-numbered idle node, or nil.
func (c *Cluster) FirstIdle() *Node {
	for _, n := range c.nodes {
		if n.Idle() {
			return n
		}
	}
	return nil
}

// planInto partitions iv into execution pieces for node n, appending to buf.
// It reuses the cluster's partition scratch buffers, so it is not reentrant.
func (c *Cluster) planInto(buf []Piece, n *Node, iv dataspace.Interval) []Piece {
	pieces := buf
	c.partScratch = n.Cache.Cached().AppendPartition(iv, c.partScratch[:0])
	for _, run := range c.partScratch {
		if run.InSet {
			pieces = append(pieces, Piece{
				Range: run.Interval, Source: SourceCache,
				RemoteNode: -1, PerEvent: n.evtCached,
			})
			continue
		}
		if !c.cfg.RemoteReads {
			pieces = append(pieces, c.tapePiece(n, run.Interval))
			continue
		}
		c.nodeScratch = c.index.AppendPartitionByNode(run.Interval, c.nodeScratch[:0])
		for _, np := range c.nodeScratch {
			// A down node cannot serve remote reads: data its cache still
			// indexes (a repairable outage preserves the disk) re-streams
			// from tape until the node returns.
			if np.Node < 0 || np.Node == n.ID || !c.nodes[np.Node].up {
				pieces = append(pieces, c.tapePiece(n, np.Interval))
				continue
			}
			pieces = append(pieces, Piece{
				Range: np.Interval, Source: SourceRemote,
				RemoteNode: np.Node, PerEvent: n.evtRemote,
			})
		}
	}
	return pieces
}

func (c *Cluster) tapePiece(n *Node, iv dataspace.Interval) Piece {
	return Piece{Range: iv, Source: SourceTape, RemoteNode: -1, PerEvent: n.evtTape}
}

// EstimateTime returns the wall time node n would need to process iv with
// the current cache contents.
func (c *Cluster) EstimateTime(n *Node, iv dataspace.Interval) float64 {
	c.planBuf = c.planInto(c.planBuf[:0], n, iv)
	var t float64
	for _, p := range c.planBuf {
		t += float64(p.Range.Len()) * p.PerEvent
	}
	return t
}

// acquireRunning takes a Running from the free list (or makes one) and
// binds it to node n. The completion closure is allocated once per object
// and survives recycling: it reads the node and state through r.
func (c *Cluster) acquireRunning(n *Node) *Running {
	r := c.freeRun
	if r != nil {
		c.freeRun = r.nextFree
		r.nextFree = nil
	} else {
		r = &Running{}
		r.fire = func() { c.pieceDone(r.node, r) }
	}
	r.node = n
	return r
}

// releaseRunning returns r to the free list. Callers must be done with
// every field; the pieces slice keeps its capacity.
func (c *Cluster) releaseRunning(r *Running) {
	r.Subjob = nil
	r.node = nil
	r.pieces = r.pieces[:0]
	r.pieceIdx = 0
	r.pieceStart = 0
	r.ev = nil
	r.nextFree = c.freeRun
	c.freeRun = r
}

// Dispatch starts subjob sj on idle node n. It panics if n is busy or the
// subjob is empty — both indicate a policy bug.
func (c *Cluster) Dispatch(n *Node, sj *job.Subjob) {
	if !n.up {
		panic(fmt.Sprintf("cluster: dispatch on down node %d", n.ID))
	}
	if !n.Idle() {
		panic(fmt.Sprintf("cluster: dispatch on busy node %d", n.ID))
	}
	if sj.Range.Empty() {
		panic("cluster: dispatch of empty subjob")
	}
	j := sj.Job
	if !j.Started {
		j.Started = true
		j.FirstStart = c.eng.Now()
		c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.JobStarted, JobID: j.ID})
		if c.JobStarted != nil {
			c.JobStarted(j)
		}
	}
	j.Running++
	c.stats.Dispatches++
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.SubjobStarted, JobID: j.ID, Node: n.ID, Events: sj.Events()})
	r := c.acquireRunning(n)
	r.Subjob = sj
	r.pieces = c.planInto(r.pieces, n, sj.Range)
	n.run = r
	c.startPiece(n, r)
}

// startPiece begins the current piece of r on n.
func (c *Cluster) startPiece(n *Node, r *Running) {
	p := r.pieces[r.pieceIdx]
	r.pieceStart = c.eng.Now()
	d := float64(p.Range.Len()) * p.PerEvent
	r.ev = c.eng.After(d, r.fire)
}

// pieceDone completes the current piece, then either starts the next piece
// or finishes the subjob.
func (c *Cluster) pieceDone(n *Node, r *Running) {
	p := r.pieces[r.pieceIdx]
	c.accountSpan(n, p, p.Range)
	r.pieceIdx++
	if r.pieceIdx < len(r.pieces) {
		c.startPiece(n, r)
		return
	}
	c.finishSubjob(n, r)
}

// accountSpan records that the span done of piece p was processed on n:
// source statistics, cache insertion or refresh and the replication rule.
func (c *Cluster) accountSpan(n *Node, p Piece, done dataspace.Interval) {
	if done.Empty() {
		return
	}
	now := c.eng.Now()
	switch p.Source {
	case SourceCache:
		c.stats.EventsFromCache += done.Len()
		n.Cache.Touch(done, now)
	case SourceTape:
		c.stats.EventsFromTape += done.Len()
		if c.cfg.Caching {
			n.Cache.Insert(done, now)
		}
	case SourceRemote:
		c.stats.EventsFromRemote += done.Len()
		owner := c.nodes[p.RemoteNode]
		owner.Cache.Touch(done, now)
		if c.cfg.ReplicateAfter > 0 {
			if c.counts[p.RemoteNode].Increment(done) >= c.cfg.ReplicateAfter {
				c.stats.EventsReplicated += done.Len()
				n.Cache.Insert(done, now)
			}
		}
	}
}

// finishSubjob tears down r and propagates job accounting and callbacks.
// r is recycled before the callbacks run, so a callback that re-dispatches
// on n can reuse it.
func (c *Cluster) finishSubjob(n *Node, r *Running) {
	sj := r.Subjob
	j := sj.Job
	n.run = nil
	c.releaseRunning(r)
	j.Running--
	j.Processed += sj.Events()
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.SubjobFinished, JobID: j.ID, Node: n.ID, Events: sj.Events()})
	if j.Processed > j.Events() {
		panic(fmt.Sprintf("cluster: %v processed %d of %d events", j, j.Processed, j.Events()))
	}
	c.maybeFinishJob(j)
	if c.SubjobDone != nil {
		c.SubjobDone(n, sj)
	}
}

func (c *Cluster) maybeFinishJob(j *job.Job) {
	if j.Finished || j.Processed != j.Events() {
		return
	}
	j.Finished = true
	j.EndTime = c.eng.Now()
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.JobFinished, JobID: j.ID, Events: j.Events()})
	if c.JobDone != nil {
		c.JobDone(j)
	}
}

// Preempt stops the subjob running on n at the current instant and returns
// a subjob covering its unprocessed remainder, or nil when the subjob had
// effectively completed. Events already streamed stay cached; the caller
// (a scheduling policy) owns the remainder. Preempting an idle node panics.
func (c *Cluster) Preempt(n *Node) *job.Subjob {
	if n.run == nil {
		panic(fmt.Sprintf("cluster: preempt on idle node %d", n.ID))
	}
	r := n.run
	r.ev.Cancel()
	p := r.pieces[r.pieceIdx]
	elapsed := c.eng.Now() - r.pieceStart
	k := int64(elapsed/p.PerEvent + 1e-9)
	if k > p.Range.Len() {
		k = p.Range.Len()
	}
	done := dataspace.Iv(p.Range.Start, p.Range.Start+k)
	c.accountSpan(n, p, done)
	// For an interrupted tape stream the unread part was never fetched;
	// the EndStream above accounted only the prefix, which is correct.
	sj := r.Subjob
	j := sj.Job
	rem := dataspace.Iv(done.End, sj.Range.End)
	n.run = nil
	c.releaseRunning(r)
	j.Running--
	j.Processed += sj.Events() - rem.Len()
	c.stats.Preemptions++
	c.Tracer.Add(trace.Event{Time: c.eng.Now(), Kind: trace.SubjobFinished, JobID: j.ID, Node: n.ID, Events: sj.Events() - rem.Len()})
	if rem.Empty() {
		c.maybeFinishJob(j)
		return nil
	}
	return c.arena.CloneSubjob(sj, rem)
}

// RemainingEvents returns how many events the subjob on n still has to
// process at the current instant (zero for an idle node).
func (c *Cluster) RemainingEvents(n *Node) int64 {
	if n.run == nil {
		return 0
	}
	r := n.run
	// The pieces tile the subjob's range, so those from pieceIdx on cover
	// exactly [current piece start, subjob end).
	p := r.pieces[r.pieceIdx]
	elapsed := c.eng.Now() - r.pieceStart
	k := int64(elapsed/p.PerEvent + 1e-9)
	if k > p.Range.Len() {
		k = p.Range.Len()
	}
	return r.Subjob.Range.End - p.Range.Start - k
}

// SplitRunning shrinks the subjob running on n so that tailEvents of its
// remaining range are handed back as a new subjob, which is returned. The
// head keeps running on n (it is re-dispatched, re-planning against the
// current cache state). It returns nil when the remainder is too small to
// split off tailEvents while leaving at least minHead events running.
func (c *Cluster) SplitRunning(n *Node, tailEvents, minHead int64) *job.Subjob {
	if n.run == nil || tailEvents <= 0 {
		return nil
	}
	if c.RemainingEvents(n) < tailEvents+minHead {
		return nil
	}
	rem := c.Preempt(n)
	if rem == nil {
		return nil
	}
	head, tail := rem.Range.SplitAt(rem.Range.End - tailEvents)
	if head.Empty() || tail.Empty() {
		// Cannot honour the split; resume the whole remainder.
		c.Dispatch(n, rem)
		return nil
	}
	c.Dispatch(n, c.arena.CloneSubjob(rem, head))
	return c.arena.NewSubjob(rem.Job, tail, 0)
}
