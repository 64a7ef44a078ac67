package metrics

import (
	"math"
	"testing"

	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
)

func testJob(id int64, arrival, start, end float64, events int64) *job.Job {
	return &job.Job{
		ID: id, Arrival: arrival, ScheduledAt: arrival,
		Range: dataspace.Iv(0, events), Processed: events,
		Started: true, FirstStart: start, Finished: true, EndTime: end,
	}
}

func TestCollectorSkipsWarmup(t *testing.T) {
	c := NewCollector(model.PaperCalibrated(), 2, 0)
	for i := int64(0); i < 5; i++ {
		j := testJob(i, float64(i), 10, 100, 1000)
		c.JobArrived(j)
		c.JobFinished(j)
	}
	if got := c.MeasuredCount(); got != 3 {
		t.Errorf("measured %d jobs, want 3 (2 warmup skipped)", got)
	}
	if got := c.Arrivals(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("measured arrivals %v, want those of jobs 2..4", got)
	}
	if c.Arrived() != 5 || c.Finished() != 5 {
		t.Errorf("Arrived=%d Finished=%d", c.Arrived(), c.Finished())
	}
}

func TestCollectorMeasurementWindowByID(t *testing.T) {
	c := NewCollector(model.PaperCalibrated(), 1, 2)
	// Finish out of order: IDs 3 (beyond window), 2, 1, 0 (warmup). Each
	// job arrives at its ID, so Arrivals names the measured jobs.
	for _, id := range []int64{3, 2, 1, 0} {
		c.JobFinished(testJob(id, float64(id), 10, 100, 1000))
	}
	if got := c.Arrivals(); c.MeasuredCount() != 2 || len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("measured %d jobs with arrivals %v, want exactly IDs 2 then 1", c.MeasuredCount(), got)
	}
	if !c.Done() {
		t.Error("Done should be true once the window is filled")
	}
}

func TestWaitingAndSpeedup(t *testing.T) {
	p := model.PaperCalibrated()
	c := NewCollector(p, 0, 0)
	// 1000 events, started 50s after arrival, processed in 500s.
	j := testJob(0, 100, 150, 650, 1000)
	c.JobFinished(j)
	if got := c.ReportedWaitings(); len(got) != 1 || got[0] != 50 {
		t.Errorf("ReportedWaitings = %v, want [50]", got)
	}
	wantSpeedup := 1000 * p.EventTimeTape() / 500
	if math.Abs(c.AvgSpeedup()-wantSpeedup) > 1e-9 {
		t.Errorf("AvgSpeedup = %v, want %v", c.AvgSpeedup(), wantSpeedup)
	}
	if c.AvgProcessing() != 500 {
		t.Errorf("AvgProcessing = %v, want 500", c.AvgProcessing())
	}
	if c.AvgWaiting() != 50 || c.MaxWaiting() != 50 {
		t.Errorf("Avg/Max waiting = %v/%v", c.AvgWaiting(), c.MaxWaiting())
	}
}

func TestDelayExcludedVsIncluded(t *testing.T) {
	p := model.PaperCalibrated()
	j := testJob(0, 100, 400, 900, 1000)
	j.ScheduledAt = 300 // delayed scheduling: batched at t=300

	excl := NewCollector(p, 0, 0)
	excl.JobFinished(j)
	if got := excl.ReportedWaitings()[0]; got != 100 || excl.AvgWaiting() != 100 {
		t.Errorf("delay-excluded waiting = %v (avg %v), want 100", got, excl.AvgWaiting())
	}

	incl := NewCollector(p, 0, 0)
	incl.DelayIncluded = true
	incl.JobFinished(j)
	if got := incl.ReportedWaitings()[0]; got != 300 || incl.AvgWaiting() != 300 {
		t.Errorf("delay-included waiting = %v (avg %v), want 300", got, incl.AvgWaiting())
	}
}

func TestBacklog(t *testing.T) {
	c := NewCollector(model.PaperCalibrated(), 0, 0)
	j1 := testJob(0, 0, 1, 2, 10)
	j2 := testJob(1, 0, 1, 2, 10)
	c.JobArrived(j1)
	c.JobArrived(j2)
	if c.Backlog() != 2 {
		t.Errorf("Backlog = %d, want 2", c.Backlog())
	}
	c.JobFinished(j1)
	if c.Backlog() != 1 {
		t.Errorf("Backlog = %d, want 1", c.Backlog())
	}
}

func TestWaitingQuantileAndHistogram(t *testing.T) {
	c := NewCollector(model.PaperCalibrated(), 0, 0)
	for i := int64(0); i < 100; i++ {
		// Waiting times 0..99 minutes.
		c.JobFinished(testJob(i, 0, float64(i)*60, 1e6, 1000))
	}
	med := c.WaitingQuantile(0.5)
	if math.Abs(med-99*60/2) > 60 {
		t.Errorf("median waiting = %v", med)
	}
	if c.WaitingHistogram().Total() != 100 {
		t.Errorf("histogram total = %d", c.WaitingHistogram().Total())
	}
}

// BenchmarkCollector measures the streaming per-job cost of the collector
// — the path every simulated job completion pays. It must stay
// allocation-free: the columns are presized to the measurement cap.
func BenchmarkCollector(b *testing.B) {
	p := model.PaperCalibrated()
	c := NewCollector(p, 0, b.N)
	j := testJob(0, 5, 10, 100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.ID = int64(i)
		c.JobArrived(j)
		c.JobFinished(j)
	}
}
