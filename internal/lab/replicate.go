package lab

import (
	"math"

	"physched/internal/stats"
)

// Aggregate summarises replicated runs of one scenario across seeds: the
// mean, standard deviation and 95% confidence half-width of each headline
// metric over the non-overloaded replicas, plus how many replicas
// overloaded. Figures in the paper are single curves; Aggregate quantifies
// how much a point moves run to run.
// The JSON field names are the wire format served by cmd/physchedd and
// stored by internal/resultcache; they are pinned by golden-file tests.
type Aggregate struct {
	Replicas   int `json:"replicas"`
	Overloaded int `json:"overloaded"`

	SpeedupMean float64 `json:"speedup_mean"`
	SpeedupStd  float64 `json:"speedup_std"`
	SpeedupCI95 float64 `json:"speedup_ci95"`
	WaitingMean float64 `json:"waiting_mean_sec"`
	WaitingStd  float64 `json:"waiting_std_sec"`
	WaitingCI95 float64 `json:"waiting_ci95_sec"`

	// Node-dynamics means over the steady replicas. Zero — and omitted
	// from the wire format — for fault-free scenarios, keeping their
	// encodings byte-identical to earlier builds.
	GoodputMean      float64 `json:"goodput_mean,omitempty"`
	WastedEventsMean float64 `json:"wasted_events_mean,omitempty"`
	ReexecutionsMean float64 `json:"reexecutions_mean,omitempty"`

	Results []Result `json:"results"`
}

// NewAggregate summarises a set of replica results.
func NewAggregate(results []Result) Aggregate {
	agg := Aggregate{Replicas: len(results), Results: results}
	var sp, wt, gp, wasted, reexec stats.Summary
	for _, r := range results {
		if r.Overloaded {
			agg.Overloaded++
			continue
		}
		sp.Add(r.AvgSpeedup)
		wt.Add(r.AvgWaiting)
		gp.Add(r.Goodput)
		wasted.Add(float64(r.Cluster.EventsLost))
		reexec.Add(float64(r.Cluster.Reexecutions))
	}
	agg.SpeedupMean, agg.SpeedupStd = sp.Mean(), sp.Std()
	agg.WaitingMean, agg.WaitingStd = wt.Mean(), wt.Std()
	agg.SpeedupCI95 = ci95(sp)
	agg.WaitingCI95 = ci95(wt)
	agg.GoodputMean = gp.Mean()
	agg.WastedEventsMean = wasted.Mean()
	agg.ReexecutionsMean = reexec.Mean()
	return agg
}

// ci95 is the normal-approximation 95% confidence half-width of the mean.
func ci95(s stats.Summary) float64 {
	n := s.N()
	if n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(n))
}

// MeanResult collapses the replicas into a single curve point: headline
// metrics averaged over steady replicas, Overloaded when at least half the
// replicas overloaded. With one replica this is that replica's result.
func (a Aggregate) MeanResult() Result {
	if a.Replicas == 1 {
		return a.Results[0]
	}
	var out Result
	if len(a.Results) > 0 {
		out.PolicyName = a.Results[0].PolicyName
		out.Load = a.Results[0].Load
	}
	if 2*a.Overloaded >= a.Replicas {
		out.Overloaded = true
		return out
	}
	var speed, wait, maxw, p99, proc, simt, good stats.Summary
	jobs := 0
	for _, r := range a.Results {
		if r.Overloaded {
			continue
		}
		speed.Add(r.AvgSpeedup)
		wait.Add(r.AvgWaiting)
		maxw.Add(r.MaxWaiting)
		p99.Add(r.P99Waiting)
		proc.Add(r.AvgProc)
		simt.Add(r.SimTime)
		good.Add(r.Goodput)
		jobs += r.MeasuredJobs
	}
	out.Goodput = good.Mean()
	out.AvgSpeedup = speed.Mean()
	out.AvgWaiting = wait.Mean()
	out.MaxWaiting = maxw.Max()
	out.P99Waiting = p99.Mean()
	out.AvgProc = proc.Mean()
	out.SimTime = simt.Mean()
	out.MeasuredJobs = jobs
	return out
}
