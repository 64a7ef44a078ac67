package cluster

import (
	"math"
	"testing"

	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
)

func testParams() model.Params {
	p := model.PaperCalibrated()
	p.Nodes = 3
	return p
}

func newTestCluster(cfg Config) (*sim.Engine, *Cluster) {
	eng := sim.New()
	return eng, New(eng, testParams(), cfg)
}

func mkJob(id int64, iv dataspace.Interval) *job.Job {
	return &job.Job{ID: id, Range: iv}
}

func TestDispatchRunsAtTapeRate(t *testing.T) {
	eng, c := newTestCluster(Config{})
	j := mkJob(1, dataspace.Iv(0, 1000))
	var doneAt float64
	c.SubjobDone = func(n *Node, sj *job.Subjob) { doneAt = eng.Now() }
	var jobDone *job.Job
	c.JobDone = func(jj *job.Job) { jobDone = jj }
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	want := 1000 * c.Params().EventTimeTape()
	if math.Abs(doneAt-want) > 1e-6 {
		t.Errorf("subjob finished at %v, want %v", doneAt, want)
	}
	if jobDone != j || !j.Finished || j.Processed != 1000 {
		t.Errorf("job accounting wrong: %+v", j)
	}
	if got := c.Stats().EventsFromTape; got != 1000 {
		t.Errorf("EventsFromTape = %d, want 1000", got)
	}
}

func TestCachingAcceleratesSecondPass(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j1 := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j1, Range: j1.Range})
	eng.Run()
	if !c.Node(0).Cache.Contains(dataspace.Iv(0, 1000)) {
		t.Fatal("streamed data not cached")
	}
	start := eng.Now()
	j2 := mkJob(2, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j2, Range: j2.Range})
	eng.Run()
	got := eng.Now() - start
	want := 1000 * c.Params().EventTimeCached()
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("cached pass took %v, want %v", got, want)
	}
	if c.Stats().EventsFromCache != 1000 {
		t.Errorf("EventsFromCache = %d, want 1000", c.Stats().EventsFromCache)
	}
}

func TestMixedPlanUsesBothRates(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	c.Node(0).Cache.Insert(dataspace.Iv(0, 500), 0)
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	want := 500*c.Params().EventTimeCached() + 500*c.Params().EventTimeTape()
	if math.Abs(eng.Now()-want) > 1e-6 {
		t.Errorf("mixed subjob took %v, want %v", eng.Now(), want)
	}
}

func TestRemoteReadsUsedWhenEnabled(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true, RemoteReads: true})
	c.Node(1).Cache.Insert(dataspace.Iv(0, 1000), 0)
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	want := 1000 * c.Params().EventTimeRemote()
	if math.Abs(eng.Now()-want) > 1e-6 {
		t.Errorf("remote subjob took %v, want %v", eng.Now(), want)
	}
	if c.Stats().EventsFromRemote != 1000 {
		t.Errorf("EventsFromRemote = %d", c.Stats().EventsFromRemote)
	}
	// Without replication the reader must not cache the data.
	if c.Node(0).Cache.Used() != 0 {
		t.Error("remote read cached data without replication enabled")
	}
}

func TestReplicationAfterThreshold(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true, RemoteReads: true, ReplicateAfter: 3})
	c.Node(1).Cache.Insert(dataspace.Iv(0, 100), 0)
	for i := int64(0); i < 3; i++ {
		j := mkJob(i, dataspace.Iv(0, 100))
		c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
		eng.Run()
		cached := c.Node(0).Cache.Used()
		if i < 2 && cached != 0 {
			t.Errorf("access %d: replicated too early (%d events)", i+1, cached)
		}
		if i == 2 && cached != 100 {
			t.Errorf("access 3: want replication, cache holds %d", cached)
		}
	}
	if c.Stats().EventsReplicated != 100 {
		t.Errorf("EventsReplicated = %d, want 100", c.Stats().EventsReplicated)
	}
}

func TestPreemptReturnsRemainder(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	// Run until exactly 400 events should have been processed.
	cut := 400 * c.Params().EventTimeTape()
	eng.RunUntil(cut)
	rem := c.Preempt(c.Node(0))
	if rem == nil {
		t.Fatal("preempt returned nil")
	}
	if rem.Range != dataspace.Iv(400, 1000) {
		t.Errorf("remainder = %v, want [400,1000)", rem.Range)
	}
	if j.Processed != 400 {
		t.Errorf("Processed = %d, want 400", j.Processed)
	}
	if !c.Node(0).Idle() {
		t.Error("node still busy after preempt")
	}
	// The streamed prefix must be cached.
	if !c.Node(0).Cache.Contains(dataspace.Iv(0, 400)) {
		t.Error("preempted prefix not cached")
	}
	// Resume the remainder; the job must complete fully.
	c.Dispatch(c.Node(1), rem)
	eng.Run()
	if !j.Finished || j.Processed != 1000 {
		t.Errorf("job not completed after resume: %+v", j)
	}
}

func TestPreemptImmediatelyProcessesNothing(t *testing.T) {
	_, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	rem := c.Preempt(c.Node(0))
	if rem == nil || rem.Range != j.Range {
		t.Errorf("immediate preempt remainder = %v, want full range", rem)
	}
	if j.Processed != 0 {
		t.Errorf("Processed = %d, want 0", j.Processed)
	}
}

func TestRemainingEvents(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	if got := c.RemainingEvents(c.Node(0)); got != 1000 {
		t.Errorf("RemainingEvents at start = %d, want 1000", got)
	}
	eng.RunUntil(250 * c.Params().EventTimeTape())
	if got := c.RemainingEvents(c.Node(0)); got != 750 {
		t.Errorf("RemainingEvents = %d, want 750", got)
	}
	if got := c.RemainingEvents(c.Node(1)); got != 0 {
		t.Errorf("idle node RemainingEvents = %d", got)
	}
}

func TestSplitRunning(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.RunUntil(100 * c.Params().EventTimeTape())
	tail := c.SplitRunning(c.Node(0), 450, 10)
	if tail == nil {
		t.Fatal("SplitRunning returned nil")
	}
	if tail.Range != dataspace.Iv(550, 1000) {
		t.Errorf("tail = %v, want [550,1000)", tail.Range)
	}
	if c.Node(0).Idle() {
		t.Error("head not re-dispatched")
	}
	// Head + tail must conserve the job's events.
	c.Dispatch(c.Node(1), tail)
	eng.Run()
	if !j.Finished || j.Processed != 1000 {
		t.Errorf("events lost in split: %+v", j)
	}
}

func TestSplitRunningRefusesTinyHead(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 100))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	if tail := c.SplitRunning(c.Node(0), 95, 10); tail != nil {
		t.Errorf("split should refuse: head would be 5 < 10, got %v", tail)
	}
	if c.Node(0).Idle() {
		t.Error("refused split left node idle")
	}
	eng.Run()
	if !j.Finished {
		t.Error("job did not finish after refused split")
	}
}

func TestEstimateTime(t *testing.T) {
	_, c := newTestCluster(Config{Caching: true})
	c.Node(0).Cache.Insert(dataspace.Iv(0, 500), 0)
	got := c.EstimateTime(c.Node(0), dataspace.Iv(0, 1000))
	want := 500*c.Params().EventTimeCached() + 500*c.Params().EventTimeTape()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("EstimateTime = %v, want %v", got, want)
	}
}

func TestDispatchOnBusyNodePanics(t *testing.T) {
	_, c := newTestCluster(Config{})
	j := mkJob(1, dataspace.Iv(0, 100))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	defer func() {
		if recover() == nil {
			t.Error("dispatch on busy node did not panic")
		}
	}()
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: dataspace.Iv(100, 200)})
}

func TestNoCachingWhenDisabled(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: false})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	if c.Node(0).Cache.Used() != 0 {
		t.Error("diskless configuration cached data")
	}
	// Second pass must be at tape rate again.
	start := eng.Now()
	j2 := mkJob(2, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j2, Range: j2.Range})
	eng.Run()
	want := 1000 * c.Params().EventTimeTape()
	if math.Abs(eng.Now()-start-want) > 1e-6 {
		t.Errorf("second pass took %v, want %v", eng.Now()-start, want)
	}
}

func TestIdleNodes(t *testing.T) {
	_, c := newTestCluster(Config{})
	if got := c.IdleCount(); got != 3 {
		t.Fatalf("IdleCount = %d, want 3", got)
	}
	j := mkJob(1, dataspace.Iv(0, 100))
	c.Dispatch(c.Node(1), &job.Subjob{Job: j, Range: j.Range})
	idle := c.AppendIdle(nil)
	if len(idle) != 2 || idle[0].ID != 0 || idle[1].ID != 2 {
		t.Errorf("AppendIdle = %v", idle)
	}
}

func TestJobStartedFiresOnce(t *testing.T) {
	eng, c := newTestCluster(Config{})
	j := mkJob(1, dataspace.Iv(0, 200))
	starts := 0
	c.JobStarted = func(*job.Job) { starts++ }
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: dataspace.Iv(0, 100)})
	c.Dispatch(c.Node(1), &job.Subjob{Job: j, Range: dataspace.Iv(100, 200)})
	eng.Run()
	if starts != 1 {
		t.Errorf("JobStarted fired %d times, want 1", starts)
	}
	if !j.Finished {
		t.Error("job with two subjobs did not finish")
	}
}

func TestTapeStreamAccounting(t *testing.T) {
	eng, c := newTestCluster(Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 500))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	if got := c.Stats().EventsFromTape; got != 500 {
		t.Errorf("EventsFromTape = %d, want 500", got)
	}
}
