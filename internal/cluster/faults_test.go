package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
	"physched/internal/trace"
)

// TestFailNodeLosesInFlightWork: failing a busy node wastes the work done
// so far, returns the full original range for re-execution and leaves the
// job's accounting consistent for a clean re-dispatch.
func TestFailNodeLosesInFlightWork(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	// Halfway through the tape stream, the node dies.
	eng.RunUntil(500 * c.Params().EventTimeTape())

	lost := c.FailNode(c.Node(0), false)
	if lost == nil || lost.Range != j.Range {
		t.Fatalf("lost subjob %v, want full range %v", lost, j.Range)
	}
	if c.Node(0).Up() || c.Node(0).Idle() {
		t.Error("failed node still up or idle")
	}
	if j.Running != 0 || j.Processed != 0 || j.Started != true {
		t.Errorf("job accounting after failure: %+v", j)
	}
	st := c.Stats()
	if st.Failures != 1 || st.Reexecutions != 1 {
		t.Errorf("failures %d reexecutions %d, want 1/1", st.Failures, st.Reexecutions)
	}
	if st.EventsLost != 500 {
		t.Errorf("EventsLost = %d, want 500", st.EventsLost)
	}
	// The streamed prefix physically reached the disk and survives a
	// cache-preserving failure.
	if !c.Node(0).Cache.Contains(dataspace.Iv(0, 500)) {
		t.Error("streamed prefix not cached across a cache-preserving failure")
	}

	// Re-execution elsewhere completes the job exactly once.
	var done int
	c.JobDone = func(*job.Job) { done++ }
	c.Dispatch(c.Node(1), lost)
	eng.Run()
	if done != 1 || !j.Finished || j.Processed != 1000 {
		t.Errorf("job not conserved after re-execution: done=%d %+v", done, j)
	}
	// 500 events were streamed twice (wasted, then re-executed).
	if got := c.Stats().EventsFromTape; got != 1500 {
		t.Errorf("EventsFromTape = %d, want 1500", got)
	}
}

// TestFailNodeWipesCache: CacheLoss takes the disk contents with the node.
func TestFailNodeWipesCache(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	if c.Node(0).Cache.Used() == 0 {
		t.Fatal("nothing cached")
	}
	c.FailNode(c.Node(0), true)
	if used := c.Node(0).Cache.Used(); used != 0 {
		t.Errorf("cache holds %d events after a disk-losing failure", used)
	}
}

// TestFailIdleNodeAndRepair: an idle failure loses nothing; repair makes
// the node schedulable again and fires the callbacks in order.
func TestFailIdleNodeAndRepair(t *testing.T) {
	_, c := newTestCluster(Config{})
	var downs, ups int
	c.NodeDown = func(n *Node, lost *job.Subjob) {
		downs++
		if lost != nil {
			t.Errorf("idle failure reported lost work %v", lost)
		}
	}
	c.NodeUp = func(*Node) { ups++ }

	if lost := c.FailNode(c.Node(2), false); lost != nil {
		t.Errorf("idle failure returned %v", lost)
	}
	if c.IdleCount() != 2 || c.Node(2).Up() {
		t.Errorf("idle %d, node 2 up %v after failure, want 2/false", c.IdleCount(), c.Node(2).Up())
	}
	c.RepairNode(c.Node(2))
	if !c.Node(2).Idle() || c.IdleCount() != 3 {
		t.Error("repaired node not back in service")
	}
	if downs != 1 || ups != 1 {
		t.Errorf("callbacks: %d down, %d up, want 1/1", downs, ups)
	}
	st := c.Stats()
	if st.Failures != 1 || st.Repairs != 1 || st.EventsLost != 0 {
		t.Errorf("stats after idle failure+repair: %+v", st)
	}
}

// TestAddNodeJoins: a spare starts down, joins on JoinNode and then
// executes work like any other node.
func TestAddNodeJoins(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	n := c.AddNode()
	if n.ID != 3 || n.Up() || n.Idle() {
		t.Fatalf("fresh spare state wrong: id=%d up=%v idle=%v", n.ID, n.Up(), n.Idle())
	}
	if c.Index().Nodes() != 4 {
		t.Errorf("index covers %d caches, want 4", c.Index().Nodes())
	}
	c.JoinNode(n)
	if !n.Idle() || c.Stats().NodeJoins != 1 {
		t.Error("joined spare not idle or not counted")
	}
	j := mkJob(1, dataspace.Iv(0, 500))
	c.Dispatch(n, &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	if !j.Finished {
		t.Error("job on joined spare did not finish")
	}
}

// TestDecommissionNode: a decommission is permanent — cache wiped
// unconditionally, Decommissioned() visible to NodeDown observers, and
// repair attempts panic.
func TestDecommissionNode(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	sawDecommissioned := false
	c.NodeDown = func(n *Node, _ *job.Subjob) { sawDecommissioned = n.Decommissioned() }
	c.DecommissionNode(c.Node(0))
	if !sawDecommissioned {
		t.Error("NodeDown fired before the decommission mark was visible")
	}
	if used := c.Node(0).Cache.Used(); used != 0 {
		t.Errorf("decommissioned node still caches %d events", used)
	}
	if st := c.Stats(); st.Decommissions != 1 || st.Failures != 1 {
		t.Errorf("stats: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Error("repairing a decommissioned node did not panic")
		}
	}()
	c.RepairNode(c.Node(0))
}

// TestDownNodeServesNoRemoteReads: data cached on a down node re-streams
// from tape until the node returns — a powered-off disk cannot serve the
// network.
func TestDownNodeServesNoRemoteReads(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true, RemoteReads: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(1), &job.Subjob{Job: j, Range: j.Range})
	eng.Run() // node 1 now caches [0,1000)

	iv := dataspace.Iv(0, 1000)
	remote := estimateTime(c, c.Node(0), iv)
	if want := 1000 * c.Params().EventTimeRemote(); math.Abs(remote-want) > 1e-6 {
		t.Fatalf("estimate with owner up = %v, want remote rate %v", remote, want)
	}
	c.FailNode(c.Node(1), false) // outage preserves the disk…
	down := estimateTime(c, c.Node(0), iv)
	if want := 1000 * c.Params().EventTimeTape(); math.Abs(down-want) > 1e-6 {
		t.Errorf("estimate with owner down = %v, want tape rate %v", down, want)
	}
	c.RepairNode(c.Node(1)) // …and the data serves again after repair
	back := estimateTime(c, c.Node(0), iv)
	if math.Abs(back-remote) > 1e-6 {
		t.Errorf("estimate after repair = %v, want %v", back, remote)
	}
}

// TestInstallFaultsChurns: the injector produces failures and repairs on
// the engine with no jobs at all, deterministically per seed.
func TestInstallFaultsChurns(t *testing.T) {
	run := func(seed int64) (Stats, []trace.Event) {
		eng := sim.New()
		c := New(eng, testParams(), Config{})
		c.Tracer = trace.New(0, nil)
		m := FaultModel{MTBFHours: 24, RepairHours: 6, DayNightSwing: 0.5, DecommissionProb: 0.2}
		if err := InstallFaults(c, m, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(30 * model.Day)
		return c.Stats(), c.Tracer.Events()
	}
	st, timeline := run(42)
	if st.Failures == 0 || st.Repairs == 0 {
		t.Fatalf("a month of churn produced no failures/repairs: %+v", st)
	}
	if st.Decommissions == 0 {
		t.Errorf("no decommissions despite p=0.2 over %d failures", st.Failures)
	}
	if st.Repairs+st.Decommissions > st.Failures {
		t.Errorf("repairs %d + decommissions %d exceed failures %d", st.Repairs, st.Decommissions, st.Failures)
	}
	_, again := run(42)
	if fmt.Sprint(again) != fmt.Sprint(timeline) {
		t.Error("same seed, different churn timeline")
	}
	_, other := run(43)
	if fmt.Sprint(other) == fmt.Sprint(timeline) {
		t.Error("different seeds produced identical churn timelines")
	}
}

// TestFaultTraceEvents: churn shows up in the execution trace.
func TestFaultTraceEvents(t *testing.T) {
	eng, c := newTestCluster(Config{})
	rec := trace.New(0, nil)
	c.Tracer = rec
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.RunUntil(100 * c.Params().EventTimeTape())
	c.FailNode(c.Node(0), false)
	c.RepairNode(c.Node(0))
	kinds := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	if kinds[trace.NodeDown] != 1 || kinds[trace.NodeUp] != 1 || kinds[trace.SubjobLost] != 1 {
		t.Errorf("trace kinds: %v", kinds)
	}
}

// TestFaultModelValidate rejects out-of-range parameters.
func TestFaultModelValidate(t *testing.T) {
	bad := []FaultModel{
		{MTBFHours: -1},
		{MTBFHours: 10, RepairHours: -1},
		{MTBFHours: 10, DayNightSwing: 1},
		{MTBFHours: 10, DecommissionProb: -0.1},
		{SpareNodes: -2},
		{SpareNodes: 1, JoinHours: -3},
		{DayNightSwing: 0.4},
		// Inert non-zero blocks: failure knobs without a failure rate,
		// join timing without spares. Accepting them would silently
		// simulate nothing.
		{RepairHours: 2},
		{CacheLoss: true},
		{DecommissionProb: 0.1},
		{JoinHours: 5},
		{MTBFHours: 10, JoinHours: 5},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("FaultModel %+v accepted", m)
		}
	}
	if err := (FaultModel{}).Validate(); err != nil {
		t.Errorf("zero model rejected: %v", err)
	}
}

// TestDispatchOnDownNodePanics: dispatching to a down node is a policy
// bug and must fail loudly.
func TestDispatchOnDownNodePanics(t *testing.T) {
	_, c := newTestCluster(Config{})
	c.FailNode(c.Node(0), false)
	defer func() {
		if recover() == nil {
			t.Error("dispatch on down node did not panic")
		}
	}()
	j := mkJob(1, dataspace.Iv(0, 100))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
}
