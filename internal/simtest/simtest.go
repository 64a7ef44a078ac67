// Package simtest is an invariant harness for simulation scenarios: it
// wraps any lab.Scenario with live instrumentation (through
// lab.Scenario.Hooks) and asserts, during and after the run, the
// properties every correct simulation must satisfy regardless of policy,
// workload or fault model:
//
//   - Job conservation: every job reported finished completed exactly
//     once, with all of its events processed — work lost to node
//     failures was re-executed, never dropped and never double-counted.
//   - Job lifecycle order: a finished job started no earlier than it was
//     scheduled, and ended no earlier than it started.
//   - Simulation-time monotonicity: observed event times never go
//     backwards.
//   - Cache-capacity bounds: no node cache ever exceeds its capacity.
//   - Node-state sanity: a down node never has a subjob executing on it,
//     and the fault counters stay mutually consistent (repairs and
//     decommissions never exceed failures, wasted work only exists when
//     failures occurred, …).
//
// Usage, in any test:
//
//	res := simtest.Run(t, scenario)
//
// or, to keep control of execution:
//
//	ck := simtest.New()
//	ck.Instrument(&scenario)
//	res := lab.Run(scenario)
//	ck.Verify(t, res)
//
// A Checker observes a single run; build a fresh one per scenario
// execution (grids run many cells, concurrently, through one shared
// Hooks closure — instrument inside the grid's Mutate only if every cell
// gets its own Checker).
package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"physched/internal/cluster"
	"physched/internal/job"
	"physched/internal/lab"
)

// timeSlack absorbs float noise when comparing observed event times.
const timeSlack = 1e-9

// maxReported bounds the violations kept verbatim; everything past it is
// only counted, so a systematically broken run does not flood the log.
const maxReported = 20

// Checker accumulates invariant observations over one simulation run.
type Checker struct {
	cl         *cluster.Cluster
	lastTime   float64
	finished   map[int64]int // job ID → completions observed
	violations []string
	dropped    int // violations beyond maxReported
}

// New returns a Checker for one run.
func New() *Checker {
	return &Checker{finished: map[int64]int{}}
}

// Instrument installs the checker on the scenario. It chains with any
// Hooks already present (theirs run first, so the checker observes the
// fully wrapped callbacks).
func (ck *Checker) Instrument(s *lab.Scenario) {
	prev := s.Hooks
	s.Hooks = func(c *cluster.Cluster) {
		if prev != nil {
			prev(c)
		}
		ck.attach(c)
	}
}

// attach wraps the cluster's callbacks with invariant checks. The
// wrapped originals always run afterwards.
func (ck *Checker) attach(c *cluster.Cluster) {
	ck.cl = c
	prevStarted := c.JobStarted
	c.JobStarted = func(j *job.Job) {
		ck.scan()
		if !j.Started {
			ck.violate("job %d reported started while not marked Started", j.ID)
		}
		if prevStarted != nil {
			prevStarted(j)
		}
	}
	prevDone := c.JobDone
	c.JobDone = func(j *job.Job) {
		ck.jobDone(j)
		if prevDone != nil {
			prevDone(j)
		}
	}
	prevSub := c.SubjobDone
	c.SubjobDone = func(n *cluster.Node, sj *job.Subjob) {
		ck.scan()
		if prevSub != nil {
			prevSub(n, sj)
		}
	}
	prevDown := c.NodeDown
	c.NodeDown = func(n *cluster.Node, lost *job.Subjob) {
		ck.scan()
		if n.Up() {
			ck.violate("node %d reported down while up", n.ID)
		}
		if lost != nil && lost.Range.Empty() {
			ck.violate("node %d lost an empty subjob", n.ID)
		}
		if prevDown != nil {
			prevDown(n, lost)
		}
	}
	prevUp := c.NodeUp
	c.NodeUp = func(n *cluster.Node) {
		ck.scan()
		if !n.Up() {
			ck.violate("node %d reported up while down", n.ID)
		}
		if prevUp != nil {
			prevUp(n)
		}
	}
}

// jobDone checks one job-completion report.
func (ck *Checker) jobDone(j *job.Job) {
	ck.scan()
	ck.finished[j.ID]++
	if n := ck.finished[j.ID]; n > 1 {
		ck.violate("job %d completed %d times", j.ID, n)
	}
	if !j.Finished {
		ck.violate("job %d reported done while not marked Finished", j.ID)
	}
	if j.Processed != j.Events() {
		ck.violate("job %d done with %d of %d events processed", j.ID, j.Processed, j.Events())
	}
	if j.Running != 0 {
		ck.violate("job %d done with %d subjobs still running", j.ID, j.Running)
	}
	if j.EndTime+timeSlack < j.Arrival {
		ck.violate("job %d ends at %v before its arrival %v", j.ID, j.EndTime, j.Arrival)
	}
	if !j.Started {
		ck.violate("job %d done without ever starting", j.ID)
	}
	if j.FirstStart+timeSlack < j.ScheduledAt {
		ck.violate("job %d first starts at %v before it was scheduled at %v", j.ID, j.FirstStart, j.ScheduledAt)
	}
	if j.EndTime+timeSlack < j.FirstStart {
		ck.violate("job %d ends at %v before its first start %v", j.ID, j.EndTime, j.FirstStart)
	}
}

// scan checks the instant-wide invariants: monotonic time, per-node
// cache bounds and node-state sanity.
func (ck *Checker) scan() {
	now := ck.cl.Engine().Now()
	if now+timeSlack < ck.lastTime {
		ck.violate("time went backwards: %v after %v", now, ck.lastTime)
	}
	if now > ck.lastTime {
		ck.lastTime = now
	}
	for _, n := range ck.cl.Nodes() {
		if used, capacity := n.Cache.Used(), n.Cache.Capacity(); used > capacity {
			ck.violate("node %d cache holds %d of %d events", n.ID, used, capacity)
		}
		if !n.Up() && n.Running() != nil {
			ck.violate("down node %d is executing %v", n.ID, n.Running())
		}
		if n.Decommissioned() && n.Up() {
			ck.violate("decommissioned node %d is up", n.ID)
		}
	}
}

func (ck *Checker) violate(format string, args ...any) {
	if len(ck.violations) >= maxReported {
		ck.dropped++
		return
	}
	ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
}

// Verify asserts the end-of-run invariants and reports everything the
// live checks accumulated. It needs the result of the instrumented run.
func (ck *Checker) Verify(tb testing.TB, res lab.Result) {
	tb.Helper()
	if ck.cl == nil {
		tb.Fatal("simtest: Verify before the instrumented scenario ran (Hooks never fired)")
	}
	for _, v := range ck.violations {
		tb.Errorf("simtest: %s", v)
	}
	if ck.dropped > 0 {
		tb.Errorf("simtest: %d further violations suppressed", ck.dropped)
	}

	// Job conservation at the boundary: the collector's completion count
	// must equal the distinct jobs observed completing (each exactly
	// once, checked live), and nothing finishes that never arrived.
	if coll := res.Collector; coll != nil {
		if got, want := int64(len(ck.finished)), coll.Finished(); got != want {
			tb.Errorf("simtest: %d distinct jobs completed but collector counted %d", got, want)
		}
		if coll.Finished() > coll.Arrived() {
			tb.Errorf("simtest: %d jobs finished, only %d arrived", coll.Finished(), coll.Arrived())
		}
	}
	if ck.lastTime > res.SimTime+timeSlack {
		tb.Errorf("simtest: events observed at %v past the run's end %v", ck.lastTime, res.SimTime)
	}

	// Fault accounting consistency.
	st := res.Cluster
	if st.Repairs+st.Decommissions > st.Failures {
		tb.Errorf("simtest: repairs %d + decommissions %d exceed failures %d", st.Repairs, st.Decommissions, st.Failures)
	}
	if st.Failures == 0 && (st.EventsLost != 0 || st.Reexecutions != 0) {
		tb.Errorf("simtest: wasted work (%d events, %d re-executions) without failures", st.EventsLost, st.Reexecutions)
	}
	if st.Reexecutions > st.Dispatches {
		tb.Errorf("simtest: %d re-executions exceed %d dispatches", st.Reexecutions, st.Dispatches)
	}
	if st.EventsLost < 0 || st.Reexecutions < 0 {
		tb.Errorf("simtest: negative fault counters: %+v", st)
	}
	if res.Goodput < 0 || res.Goodput > 1 {
		tb.Errorf("simtest: goodput %v out of [0,1]", res.Goodput)
	}

	// Final node-state sanity: every job the run completed released its
	// node, and down nodes hold no work.
	for _, n := range ck.cl.Nodes() {
		if !n.Up() && n.Running() != nil {
			tb.Errorf("simtest: down node %d still executing %v at end of run", n.ID, n.Running())
		}
	}
}

// Run executes the scenario under the checker and verifies it: the
// one-line form for tests. The result keeps its Collector, like lab.Run.
func Run(tb testing.TB, s lab.Scenario) lab.Result {
	tb.Helper()
	ck := New()
	ck.Instrument(&s)
	res, err := lab.RunE(s)
	if err != nil {
		tb.Fatalf("simtest: %v", err)
	}
	ck.Verify(tb, res)
	return res
}

// CheckGridDeterminism executes the grid three ways — serially, on a
// parallel per-call pool, and on a shared long-lived pool — and asserts
// the three result sets are byte-identical: the lab's determinism
// contract, which stochastic extensions (node churn, inhomogeneous
// arrivals) must not erode. It returns the serial RunSet.
func CheckGridDeterminism(tb testing.TB, g lab.Grid) *lab.RunSet {
	tb.Helper()
	serial, err := g.Execute(lab.Options{Workers: 1})
	if err != nil {
		tb.Fatalf("simtest: serial execution: %v", err)
	}
	want := marshal(tb, serial.Results)
	parallel, err := g.Execute(lab.Options{Workers: 4})
	if err != nil {
		tb.Fatalf("simtest: parallel execution: %v", err)
	}
	if got := marshal(tb, parallel.Results); !bytes.Equal(got, want) {
		tb.Errorf("simtest: parallel grid differs from serial:\nserial: %s\nparallel: %s", want, got)
	}
	pool := lab.NewPool(4)
	defer pool.Close()
	shared, err := g.Execute(lab.Options{Pool: pool})
	if err != nil {
		tb.Fatalf("simtest: shared-pool execution: %v", err)
	}
	if got := marshal(tb, shared.Results); !bytes.Equal(got, want) {
		tb.Errorf("simtest: shared-pool grid differs from serial:\nserial: %s\nshared: %s", want, got)
	}
	return serial
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
