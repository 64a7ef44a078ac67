package sched

import (
	"slices"
	"sort"

	"physched/internal/cluster"
	"physched/internal/job"
	"physched/internal/model"
)

// DelayStep maps a load level to the minimal period delay that sustains it.
type DelayStep struct {
	// MaxUtilisation is the highest load this delay sustains, expressed as
	// a fraction of the cluster's maximal theoretical load, so the profile
	// transfers across cluster sizes.
	MaxUtilisation float64
	// Delay is the period delay to use up to MaxUtilisation.
	Delay float64
}

// DefaultDelayTable is the delay-versus-load profile used by the adaptive
// policy. It mirrors the performance profiles the paper extracts from
// Figures 5 and 6: zero delay while the out-of-order-like regime sustains
// the load (up to roughly half the maximal theoretical load, i.e. about
// 1.7 of 3.46 jobs/hour on the paper's cluster), then increasing delays up
// to one week near the maximal theoretical load.
var DefaultDelayTable = []DelayStep{
	{MaxUtilisation: 0.49, Delay: 0},
	{MaxUtilisation: 0.58, Delay: 4 * model.Hour},
	{MaxUtilisation: 0.64, Delay: 11 * model.Hour},
	{MaxUtilisation: 0.70, Delay: model.Day},
	{MaxUtilisation: 0.75, Delay: 2 * model.Day},
	{MaxUtilisation: 1.05, Delay: model.Week},
}

// Adaptive is the adaptive-delay policy of §6: delayed scheduling whose
// period delay follows the current load — zero at normal loads (jobs are
// scheduled immediately, stripe distribution included) and up to a week
// near the maximal sustainable load. Waiting times of this policy are
// reported delay-included (Figure 7).
type Adaptive struct {
	base
	// Stripe is the stripe size in events (Figure 7 uses 200 and 5000).
	Stripe int64
	// Table is the load-to-delay profile; DefaultDelayTable when nil.
	Table []DelayStep
	// Window is the arrival-rate estimation window (default 12 h).
	Window float64

	inner    *Delayed
	arrivals []float64 // arrival times within the window
}

// NewAdaptive returns the adaptive-delay policy with the given stripe size.
func NewAdaptive(stripe int64) *Adaptive {
	return &Adaptive{Stripe: stripe, Table: DefaultDelayTable, Window: 12 * model.Hour}
}

func (*Adaptive) Name() string { return "adaptive" }

func (*Adaptive) ClusterConfig() cluster.Config {
	return cluster.Config{Caching: true}
}

func (p *Adaptive) Attach(c *cluster.Cluster) {
	p.base.Attach(c)
	if p.Table == nil {
		p.Table = DefaultDelayTable
	}
	if p.Window <= 0 {
		p.Window = 12 * model.Hour
	}
	p.inner = NewDelayed(0, p.Stripe)
	p.inner.Attach(c)
}

// CurrentDelay returns the period delay selected for the current load
// estimate.
func (p *Adaptive) CurrentDelay() float64 { return p.inner.Period }

// LoadEstimate returns the arrival rate, in jobs per hour, observed over
// the estimation window.
func (p *Adaptive) LoadEstimate() float64 {
	if len(p.arrivals) < 2 {
		return 0
	}
	span := p.now() - p.arrivals[0]
	if span < model.Hour {
		span = model.Hour
	}
	return float64(len(p.arrivals)) / (span / model.Hour)
}

// delayFor picks the minimal delay sustaining the load (in jobs per hour).
func (p *Adaptive) delayFor(load float64) float64 {
	util := load / p.params.MaxTheoreticalLoad()
	i := sort.Search(len(p.Table), func(i int) bool { return p.Table[i].MaxUtilisation >= util })
	if i == len(p.Table) {
		return p.Table[len(p.Table)-1].Delay
	}
	return p.Table[i].Delay
}

func (p *Adaptive) JobArrived(j *job.Job) {
	now := p.now()
	// Drop the arrivals older than the window in place, so appends reuse
	// the slice's storage instead of sliding off its front.
	p.arrivals = slices.Delete(p.arrivals, 0, sort.SearchFloat64s(p.arrivals, now-p.Window))
	p.arrivals = append(p.arrivals, now)
	p.retune()
	p.inner.JobArrived(j)
}

// retune adjusts the inner delayed scheduler's period to the current load.
// Switching from zero to a positive period starts the period timer;
// switching to zero drains the pending batch immediately.
func (p *Adaptive) retune() {
	want := p.delayFor(p.LoadEstimate())
	have := p.inner.Period
	if want == have {
		return
	}
	p.inner.Period = want
	if have == 0 && want > 0 {
		// Enter delayed mode: accumulate from now, schedule in one period.
		if p.inner.timer == nil {
			p.inner.timer = p.eng.After(want, p.inner.periodEnd)
		}
		return
	}
	if want == 0 {
		// Leave delayed mode: flush everything accumulated so far.
		if p.inner.timer != nil {
			p.inner.timer.Cancel()
			p.inner.timer = nil
		}
		p.flushPending()
	}
	// For a changed positive period the next periodEnd reschedules with
	// the new value automatically (periodEnd uses p.inner.Period).
}

// flushPending schedules all accumulated jobs immediately.
func (p *Adaptive) flushPending() {
	jobs := p.inner.pending
	// scheduleJobs finishes before any new arrival can append to pending,
	// so the backing array serves the next delayed stretch (as in
	// periodEnd).
	p.inner.pending = p.inner.pending[:0]
	now := p.now()
	for _, j := range jobs {
		j.ScheduledAt = now
	}
	p.inner.scheduleJobs(jobs)
	p.inner.feedIdleNodes()
}

func (p *Adaptive) SubjobDone(n *cluster.Node, sj *job.Subjob) {
	p.inner.SubjobDone(n, sj)
}

// NodeDown and NodeUp forward node churn to the inner delayed scheduler
// (sched.NodeStateObserver).
func (p *Adaptive) NodeDown(n *cluster.Node, lost *job.Subjob) { p.inner.NodeDown(n, lost) }
func (p *Adaptive) NodeUp(n *cluster.Node)                     { p.inner.NodeUp(n) }
