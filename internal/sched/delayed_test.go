package sched

import (
	"testing"

	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
)

// These tests target the period and timer edge cases of the delayed and
// adaptive policies — the trickiest control flow in the package.

func TestDelayedJobsSpanPeriods(t *testing.T) {
	pol := NewDelayed(model.Hour, 400)
	h := newHarness(t, pol, nil)
	// First batch: enough work to outlast one period on 3 nodes.
	var first []*job.Job
	for i := 0; i < 6; i++ {
		first = append(first, h.submit(dataspace.Iv(int64(i)*5_000, int64(i)*5_000+3_000)))
	}
	// Run into the second period and submit more.
	h.eng.RunUntil(model.Hour + 60)
	second := h.submit(dataspace.Iv(40_000, 41_000))
	h.eng.RunUntil(40 * model.Hour)
	for i, j := range first {
		if !j.Finished {
			t.Fatalf("first-batch job %d unfinished", i)
		}
		if j.ScheduledAt != model.Hour {
			t.Errorf("first-batch job %d ScheduledAt = %v, want %v", i, j.ScheduledAt, model.Hour)
		}
	}
	if !second.Finished {
		t.Fatal("second-batch job unfinished")
	}
	if second.ScheduledAt != 2*model.Hour {
		t.Errorf("second-batch ScheduledAt = %v, want %v", second.ScheduledAt, 2*model.Hour)
	}
}

func TestDelayedMetaQueueOrderedByArrival(t *testing.T) {
	pol := NewDelayed(model.Hour, 400)
	h := newHarness(t, pol, nil)
	// Two disjoint uncached jobs arriving in order within one period.
	early := h.submit(dataspace.Iv(0, 2_000))
	h.eng.RunUntil(30 * model.Minute)
	late := h.submit(dataspace.Iv(50_000, 52_000))
	h.eng.RunUntil(20 * model.Hour)
	if !early.Finished || !late.Finished {
		t.Fatal("jobs unfinished")
	}
	if early.FirstStart > late.FirstStart {
		t.Error("meta-subjob queue violated arrival order for disjoint jobs")
	}
}

func TestAdaptiveDelayTransitionsBothWays(t *testing.T) {
	pol := NewAdaptive(400)
	// Tight table so the test flips regimes quickly.
	pol.Table = []DelayStep{
		{MaxUtilisation: 0.2, Delay: 0},
		{MaxUtilisation: 10, Delay: model.Hour},
	}
	pol.Window = 2 * model.Hour
	h := newHarness(t, pol, nil)

	// Phase 1: slow arrivals → zero delay.
	h.submit(dataspace.Iv(0, 500))
	if pol.CurrentDelay() != 0 {
		t.Fatalf("initial delay = %v, want 0", pol.CurrentDelay())
	}
	// Phase 2: a burst far beyond 20% utilisation → positive delay.
	for i := 0; i < 50; i++ {
		h.eng.RunUntil(h.eng.Now() + 30)
		h.submit(dataspace.Iv(int64(i)*600, int64(i)*600+400))
	}
	if pol.CurrentDelay() == 0 {
		t.Fatalf("delay stayed 0 under burst (estimate %.2f j/h)", pol.LoadEstimate())
	}
	// Phase 3: let the window drain; next arrival must retune to zero and
	// flush everything accumulated.
	h.eng.RunUntil(h.eng.Now() + 3*model.Hour)
	last := h.submit(dataspace.Iv(40_000, 40_500))
	if pol.CurrentDelay() != 0 {
		t.Fatalf("delay did not return to 0 (estimate %.2f j/h)", pol.LoadEstimate())
	}
	if !last.Started && h.c.IdleCount() > 0 {
		t.Error("zero-delay arrival not scheduled immediately")
	}
	h.eng.RunUntil(h.eng.Now() + 100*model.Hour)
	if !last.Finished {
		t.Fatal("post-flush job unfinished")
	}
}

func TestAdaptiveFlushSchedulesPendingJobs(t *testing.T) {
	pol := NewAdaptive(400)
	pol.Table = []DelayStep{
		{MaxUtilisation: 0.15, Delay: 0},
		{MaxUtilisation: 10, Delay: 5 * model.Hour},
	}
	pol.Window = model.Hour
	h := newHarness(t, pol, nil)
	// Burst to enter delayed mode; these jobs accumulate as pending.
	var burst []*job.Job
	for i := 0; i < 30; i++ {
		h.eng.RunUntil(h.eng.Now() + 20)
		burst = append(burst, h.submit(dataspace.Iv(int64(i)*700, int64(i)*700+500)))
	}
	// Quiet period, then one arrival triggering the flush back to zero.
	h.eng.RunUntil(h.eng.Now() + 2*model.Hour)
	h.submit(dataspace.Iv(45_000, 45_400))
	h.eng.RunUntil(h.eng.Now() + 200*model.Hour)
	for i, j := range burst {
		if !j.Finished {
			t.Fatalf("burst job %d lost across the mode flip", i)
		}
	}
}

func TestDelayedTimerNotDuplicated(t *testing.T) {
	// Entering delayed mode twice must not double-schedule period ends
	// (which would halve the effective period and skew batching).
	pol := NewAdaptive(400)
	pol.Table = []DelayStep{
		{MaxUtilisation: 0.1, Delay: 0},
		{MaxUtilisation: 10, Delay: model.Hour},
	}
	pol.Window = model.Hour
	h := newHarness(t, pol, nil)
	for i := 0; i < 20; i++ {
		h.eng.RunUntil(h.eng.Now() + 10)
		h.submit(dataspace.Iv(int64(i)*600, int64(i)*600+400))
	}
	if pol.inner.timer == nil {
		t.Fatal("no period timer in delayed mode")
	}
	// Count pending period-end events indirectly: after cancelling the
	// tracked timer there must be no other timer that fires periodEnd.
	pol.inner.timer.Cancel()
	pending := pol.inner.pending
	h.eng.RunUntil(h.eng.Now() + 3*model.Hour)
	if len(pol.inner.pending) < len(pending) {
		t.Error("a duplicate period timer scheduled the batch after the tracked timer was cancelled")
	}
}

// TestDelayedRepairResumesPrivateQueue reproduces the churn liveness
// trap of per-node queues: work queued on a node that fails is invisible
// to every other dispatch path, so the repaired node must feed itself on
// NodeUp — in zero-period mode no period boundary ever comes, and with
// no further arrivals or completions nothing else would run it.
func TestDelayedRepairResumesPrivateQueue(t *testing.T) {
	pol := NewDelayed(0, 1000)
	h := newHarness(t, pol, nil)
	h.c.NodeDown = pol.NodeDown
	h.c.NodeUp = pol.NodeUp

	// Warm node 0's cache so the next jobs queue on its private queue.
	j1 := h.submit(dataspace.Iv(0, 1000))
	h.eng.Run()
	if !j1.Finished {
		t.Fatal("warm-up job incomplete")
	}
	j2 := h.submit(dataspace.Iv(0, 1000)) // runs on node 0 (cached there)
	j3 := h.submit(dataspace.Iv(0, 1000)) // queues behind it
	if h.c.Node(0).Running() == nil {
		t.Fatal("node 0 should be running j2")
	}

	h.c.FailNode(h.c.Node(0), false)
	h.eng.Run() // no events left: without NodeUp feeding, j2/j3 strand
	if j2.Finished || j3.Finished {
		t.Fatal("jobs finished while their node was down")
	}
	h.c.RepairNode(h.c.Node(0))
	h.eng.Run()
	if !j2.Finished || !j3.Finished {
		t.Errorf("repaired node never resumed its queue: j2=%v j3=%v", j2.Finished, j3.Finished)
	}
}

// TestDelayedDecommissionRestripes: a decommissioned node's private
// backlog is re-striped for the surviving nodes instead of stranding.
func TestDelayedDecommissionRestripes(t *testing.T) {
	pol := NewDelayed(0, 1000)
	h := newHarness(t, pol, nil)
	h.c.NodeDown = pol.NodeDown
	h.c.NodeUp = pol.NodeUp

	j1 := h.submit(dataspace.Iv(0, 1000))
	h.eng.Run()
	if !j1.Finished {
		t.Fatal("warm-up job incomplete")
	}
	j2 := h.submit(dataspace.Iv(0, 1000))
	j3 := h.submit(dataspace.Iv(0, 1000))
	h.c.DecommissionNode(h.c.Node(0))
	h.eng.Run()
	if !j2.Finished || !j3.Finished {
		t.Errorf("decommissioned node's backlog stranded: j2=%v j3=%v", j2.Finished, j3.Finished)
	}
}
