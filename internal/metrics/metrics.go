// Package metrics collects the two performance variables the paper plots
// for every policy — average speedup and average waiting time as functions
// of load — plus the waiting-time distribution of Figure 4 and the backlog
// series used to detect overload (the paper cuts its curves "at high loads
// when the system leaves the steady state and becomes overloaded").
package metrics

import (
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/stats"
)

// Collector accumulates job statistics after a warm-up prefix. It is
// streaming: every aggregate the lab reports (means, max, quantiles, the
// divergence trend inputs, the waiting histogram) is maintained in fixed
// accumulators or compact per-job float columns, so a run costs O(1)
// memory per job.
type Collector struct {
	params model.Params

	// WarmupJobs results are discarded to let caches and queues reach
	// steady state (the paper measures in steady state with filled caches).
	WarmupJobs int
	// MeasureJobs caps the number of measured results; zero means no cap.
	MeasureJobs int
	// DelayIncluded reports waiting from arrival (the scheduling delay
	// included) instead of from ScheduledAt.
	DelayIncluded bool

	arrived  int64
	finished int64
	count    int // measured jobs

	// Per-job columns for the trend and quantile queries; presized to the
	// measurement cap.
	arrivals []float64
	waitExcl []float64
	waitIncl []float64

	waiting   stats.Summary
	speedup   stats.Summary
	proc      stats.Summary
	histogram *stats.LogHistogram
}

// NewCollector returns a collector for the given parameters.
func NewCollector(p model.Params, warmupJobs, measureJobs int) *Collector {
	c := &Collector{
		params:      p,
		WarmupJobs:  warmupJobs,
		MeasureJobs: measureJobs,
		// 10 s .. 4 weeks covers Figure 4's axis with margin.
		histogram: stats.NewLogHistogram(10, 4*model.Week, 6),
	}
	if measureJobs > 0 {
		c.arrivals = make([]float64, 0, measureJobs)
		c.waitExcl = make([]float64, 0, measureJobs)
		c.waitIncl = make([]float64, 0, measureJobs)
	}
	return c
}

// JobArrived counts an arrival.
func (c *Collector) JobArrived(*job.Job) { c.arrived++ }

// JobFinished records a completed job.
func (c *Collector) JobFinished(j *job.Job) {
	c.finished++
	if j.ID < int64(c.WarmupJobs) {
		return
	}
	if c.MeasureJobs > 0 && j.ID >= int64(c.WarmupJobs+c.MeasureJobs) {
		return
	}
	waiting := j.FirstStart - j.ScheduledAt
	waitingWithDelay := j.FirstStart - j.Arrival
	processing := j.EndTime - j.FirstStart
	speedup := 0.0
	if processing > 0 {
		single := float64(j.Events()) * c.params.EventTimeTape()
		speedup = single / processing
	}
	c.count++
	c.arrivals = append(c.arrivals, j.Arrival)
	c.waitExcl = append(c.waitExcl, waiting)
	c.waitIncl = append(c.waitIncl, waitingWithDelay)
	w := waiting
	if c.DelayIncluded {
		w = waitingWithDelay
	}
	c.waiting.Add(w)
	c.histogram.Add(w)
	c.speedup.Add(speedup)
	c.proc.Add(processing)
}

// Done reports whether the measurement quota has been reached.
func (c *Collector) Done() bool {
	return c.MeasureJobs > 0 && c.count >= c.MeasureJobs
}

// Backlog returns the number of jobs arrived but not yet finished.
func (c *Collector) Backlog() int64 { return c.arrived - c.finished }

// Arrived and Finished return the arrival and completion counts.
func (c *Collector) Arrived() int64  { return c.arrived }
func (c *Collector) Finished() int64 { return c.finished }

// MeasuredCount returns the number of measured jobs.
func (c *Collector) MeasuredCount() int { return c.count }

// Arrivals returns the arrival times of the measured jobs, in measurement
// order. The slice is the collector's storage: read-only.
func (c *Collector) Arrivals() []float64 { return c.arrivals }

// ReportedWaitings returns the reported waiting time (delay included or
// not, per DelayIncluded) of the measured jobs, in measurement order. The
// slice is the collector's storage: read-only.
func (c *Collector) ReportedWaitings() []float64 {
	if c.DelayIncluded {
		return c.waitIncl
	}
	return c.waitExcl
}

// AvgWaiting returns the mean reported waiting time, in seconds.
func (c *Collector) AvgWaiting() float64 { return c.waiting.Mean() }

// MaxWaiting returns the maximum reported waiting time, in seconds.
func (c *Collector) MaxWaiting() float64 { return c.waiting.Max() }

// AvgSpeedup returns the mean per-job speedup.
func (c *Collector) AvgSpeedup() float64 { return c.speedup.Mean() }

// AvgProcessing returns the mean processing time, in seconds.
func (c *Collector) AvgProcessing() float64 { return c.proc.Mean() }

// WaitingHistogram returns the log-scale waiting time histogram (Figure 4).
func (c *Collector) WaitingHistogram() *stats.LogHistogram { return c.histogram }

// WaitingQuantile returns the q-quantile of reported waiting times.
func (c *Collector) WaitingQuantile(q float64) float64 {
	return stats.Quantile(c.ReportedWaitings(), q)
}
