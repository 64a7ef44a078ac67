package sched

import (
	"cmp"
	"slices"
	"sort"

	"physched/internal/cluster"
	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
)

// Delayed is the delayed scheduling policy of Table 4: time is divided into
// periods of length Period during which arriving jobs are only accumulated;
// at each period boundary the accumulated jobs are scheduled at once. Jobs
// are split along cache boundaries; the uncached remainder is re-split on a
// stripe grid of at most Stripe events and grouped into meta-subjobs of
// overlapping stripes, so each stripe is loaded from tertiary storage at
// most once per period. Nodes drain their own queue first, then pull
// meta-subjobs.
//
// With Period zero the policy schedules each job immediately on arrival but
// keeps the stripe-based data distribution — the regime the adaptive policy
// falls back to at low loads (§6).
type Delayed struct {
	base
	// Period is the accumulation delay (paper: 11 h, 2 days, 1 week).
	Period float64
	// Stripe is the largest data segment of one subjob, in events
	// (paper: 200 to 25 000).
	Stripe int64

	pending  []*job.Job
	nodeQ    []subjobDeque
	metaQ    []*metaSubjob // queued from metaHead on
	metaHead int
	timer    *sim.Event // pending period-boundary event, nil in zero-period mode

	periodFn func(any) // shared period-boundary callback (see Attach)

	// Scratch buffers, reused across scheduling rounds.
	uncachedScratch []*job.Subjob
	union           dataspace.Set
	boundScratch    []int64
	points          []int64
	ptScratch       []int64
	cutScratch      []dataspace.Interval
	metas           map[dataspace.Interval]*metaSubjob
	spareMeta       []*metaSubjob // dispatched meta-subjobs, reused by newMeta
}

// metaSubjob aggregates subjobs needing overlapping uncached data; the
// whole stripe is fetched from tape once and every member reuses it.
type metaSubjob struct {
	stripe  dataspace.Interval
	members []*job.Subjob
	arrival float64 // earliest member arrival (Table 4 queues by it)
}

// NewDelayed returns the delayed policy with the given period delay and
// stripe size in events.
func NewDelayed(period float64, stripe int64) *Delayed {
	if period < 0 || stripe <= 0 {
		panic("sched: delayed policy needs period ≥ 0 and stripe > 0")
	}
	return &Delayed{Period: period, Stripe: stripe}
}

func (*Delayed) Name() string { return "delayed" }

func (*Delayed) ClusterConfig() cluster.Config {
	return cluster.Config{Caching: true}
}

func (p *Delayed) Attach(c *cluster.Cluster) {
	p.base.Attach(c)
	// len(c.Nodes()) covers spare nodes joining late (cluster.FaultModel).
	p.nodeQ = make([]subjobDeque, len(c.Nodes()))
	p.metas = map[dataspace.Interval]*metaSubjob{}
	p.periodFn = func(any) { p.periodEnd() }
	if p.Period > 0 {
		p.timer = p.eng.AtCall(p.Period, p.periodFn, nil)
	}
}

func (p *Delayed) JobArrived(j *job.Job) {
	if p.Period > 0 {
		p.pending = append(p.pending, j)
		return
	}
	j.ScheduledAt = p.now()
	p.scheduleJobs([]*job.Job{j})
	p.feedIdleNodes()
}

// periodEnd schedules everything accumulated during the period and starts
// the next one (unless the period was retuned to zero in the meantime).
func (p *Delayed) periodEnd() {
	p.timer = nil
	jobs := p.pending
	// scheduleJobs finishes before any new arrival can append to pending,
	// so the backing array can be reused for the next period.
	p.pending = p.pending[:0]
	now := p.now()
	for _, j := range jobs {
		j.ScheduledAt = now
	}
	p.scheduleJobs(jobs)
	p.feedIdleNodes()
	if p.Period > 0 {
		p.timer = p.eng.AfterCall(p.Period, p.periodFn, nil)
	}
}

// scheduleJobs performs the Table 4 splitting for a batch of jobs.
func (p *Delayed) scheduleJobs(jobs []*job.Job) {
	uncached := p.uncachedScratch[:0]
	for _, j := range jobs {
		for _, pc := range p.cachePieces(j.Range, p.minSize()) {
			sub := p.arena().NewSubjob(j, pc.Interval, pc.Node)
			if pc.Node >= 0 {
				p.nodeQ[pc.Node].PushBack(sub)
				continue
			}
			sub.NoCacheQueue = true
			uncached = append(uncached, sub)
		}
	}
	p.uncachedScratch = uncached
	if len(uncached) == 0 {
		return
	}
	p.stripeAndGroup(uncached)
}

// stripeAndGroup re-splits uncached subjobs on the stripe grid and groups
// overlapping stripes into meta-subjobs queued by arrival time.
func (p *Delayed) stripeAndGroup(uncached []*job.Subjob) {
	// Connected components of the union of uncached ranges define the
	// hulls on which stripe grids are built.
	p.union.Reset()
	boundaries := p.boundScratch[:0]
	for _, sub := range uncached {
		p.union.AddInPlace(sub.Range)
		boundaries = append(boundaries, sub.Range.Start, sub.Range.End)
	}
	p.boundScratch = boundaries
	clear(p.metas)
	// Slide the queue back to the front of its storage; feedNode pops
	// from metaHead.
	n := copy(p.metaQ, p.metaQ[p.metaHead:])
	p.metaQ, p.metaHead = p.metaQ[:n], 0
	for _, hull := range p.union.Intervals() {
		p.points, p.ptScratch = job.AppendStripePoints(p.points[:0], p.ptScratch, boundaries, hull, p.Stripe)
		points := p.points
		for _, sub := range uncached {
			if !hull.ContainsInterval(sub.Range) {
				continue
			}
			p.cutScratch = job.AppendCutAtPoints(p.cutScratch[:0], sub.Range, points)
			for _, cut := range p.cutScratch {
				stripe := stripeCell(points, cut)
				m := p.metas[stripe]
				if m == nil {
					m = p.newMeta(stripe, sub.Job.Arrival)
					p.metas[stripe] = m
					p.metaQ = append(p.metaQ, m)
				}
				if sub.Job.Arrival < m.arrival {
					m.arrival = sub.Job.Arrival
				}
				member := p.arena().NewSubjob(sub.Job, cut, -1)
				member.NoCacheQueue = true
				m.members = append(m.members, member)
			}
		}
	}
	slices.SortStableFunc(p.metaQ, func(a, b *metaSubjob) int {
		return cmp.Compare(a.arrival, b.arrival)
	})
}

// newMeta returns an empty meta-subjob, reusing a dispatched one if any.
func (p *Delayed) newMeta(stripe dataspace.Interval, arrival float64) *metaSubjob {
	k := len(p.spareMeta)
	if k == 0 {
		return &metaSubjob{stripe: stripe, arrival: arrival}
	}
	m := p.spareMeta[k-1]
	p.spareMeta = p.spareMeta[:k-1]
	*m = metaSubjob{stripe: stripe, members: m.members[:0], arrival: arrival}
	return m
}

// stripeCell returns the grid cell [points[i], points[i+1]) containing cut.
func stripeCell(points []int64, cut dataspace.Interval) dataspace.Interval {
	i := sort.Search(len(points), func(i int) bool { return points[i] > cut.Start })
	// points[i-1] <= cut.Start < points[i]; cuts never straddle points.
	return dataspace.Iv(points[i-1], points[i])
}

func (p *Delayed) SubjobDone(n *cluster.Node, _ *job.Subjob) {
	p.feedNode(n)
}

func (p *Delayed) feedIdleNodes() {
	for _, n := range p.c.Nodes() {
		if n.Idle() {
			p.feedNode(n)
		}
	}
}

// feedNode runs the node's private queue first; an idle node with an empty
// queue pops the first meta-subjob and adopts all its members (Table 4).
func (p *Delayed) feedNode(n *cluster.Node) {
	if !p.nodeQ[n.ID].Empty() {
		p.c.Dispatch(n, p.nodeQ[n.ID].PopFront())
		return
	}
	if p.metaHead == len(p.metaQ) {
		return
	}
	m := p.metaQ[p.metaHead]
	p.metaHead++
	for _, sub := range m.members {
		p.nodeQ[n.ID].PushBack(sub)
	}
	p.spareMeta = append(p.spareMeta, m)
	p.c.Dispatch(n, p.nodeQ[n.ID].PopFront())
}

// QueueDepths reports the scheduling backlog (pending jobs, queued subjobs,
// queued meta-subjobs) for observability and tests.
func (p *Delayed) QueueDepths() (pendingJobs, queuedSubjobs, metaSubjobs int) {
	for i := range p.nodeQ {
		queuedSubjobs += p.nodeQ[i].Len()
	}
	return len(p.pending), queuedSubjobs, len(p.metaQ) - p.metaHead
}

// DefaultStripe is the paper's default stripe size for Figure 5.
const DefaultStripe int64 = 5000

// Common period delays studied in the paper (Figure 5).
const (
	Delay11h   = 11 * model.Hour
	Delay2Days = 2 * model.Day
	Delay1Week = model.Week
)

// NodeDown implements sched.NodeStateObserver. The killed subjob returns
// to the front of its node's queue — its data is most likely still
// cached there and the node may be repaired soon. A decommissioned
// node's backlog (queue plus killed subjob) instead loses its affinity
// along with the disk and is re-striped as uncached work for the
// surviving nodes.
func (p *Delayed) NodeDown(n *cluster.Node, lost *job.Subjob) {
	if !n.Decommissioned() {
		if lost != nil {
			p.nodeQ[n.ID].PushFront(lost)
		}
		return
	}
	var orphans []*job.Subjob
	if lost != nil {
		orphans = append(orphans, lost)
	}
	q := &p.nodeQ[n.ID]
	for !q.Empty() {
		orphans = append(orphans, q.PopFront())
	}
	if len(orphans) == 0 {
		return
	}
	for _, sub := range orphans {
		sub.NoCacheQueue = true
		sub.Origin = -1
	}
	p.stripeAndGroup(orphans)
	p.feedIdleNodes()
}

// NodeUp implements sched.NodeStateObserver: a repaired or late-joining
// node feeds itself immediately — nothing else would dispatch its
// private queue before the next arrival or period boundary.
func (p *Delayed) NodeUp(n *cluster.Node) {
	if n.Idle() {
		p.feedNode(n)
	}
}
