// Package lab is the scenario-execution and experiment-orchestration layer:
// it runs single simulation scenarios to completion (Run) and entire
// scenario grids — policy variants × loads × seeds — on a bounded worker
// pool with deterministic results (Grid, RunSet). Every sweep, figure
// reproduction, ablation and replication study in this repository executes
// through lab; internal/spec compiles declarative scenario specs into the
// Scenario/Grid values this package runs.
//
// Determinism contract: a run's outcome depends only on its fully resolved
// Scenario, never on scheduling order, worker count or wall-clock time.
// Executing the same Grid serially and in parallel therefore produces
// byte-identical results.
package lab

import (
	"fmt"
	"math/rand"

	"physched/internal/cluster"
	"physched/internal/freelist"
	"physched/internal/job"
	"physched/internal/metrics"
	"physched/internal/model"
	"physched/internal/sched"
	"physched/internal/sim"
	"physched/internal/stats"
	"physched/internal/trace"
	"physched/internal/workload"
)

// Scenario is one simulation configuration.
type Scenario struct {
	Params model.Params
	// NewPolicy constructs a fresh policy (policies are stateful, so every
	// run needs its own instance).
	NewPolicy func() sched.Policy
	// Load is the mean arrival rate, in jobs per hour.
	Load float64
	// Seed drives all randomness of the run.
	Seed int64
	// WarmupJobs are simulated but not measured (cache fill, queue ramp).
	WarmupJobs int
	// MeasureJobs is the size of the measurement window.
	MeasureJobs int
	// OverloadBacklog is the backlog at which the run is declared
	// overloaded (default 25× the node count).
	OverloadBacklog int64
	// MaxSimTime caps the simulated time, in seconds (default 2 simulated
	// years) — a safety net against pathological configurations.
	MaxSimTime float64
	// DelayIncluded reports waiting times including the scheduling delay
	// (Figure 7 reports the adaptive policy this way).
	DelayIncluded bool

	// Workload, when non-nil, replaces the synthetic generator — e.g. a
	// workload.Replay of a recorded or production job trace. The Load
	// field is then only documentation. Sources are stateful: a Scenario
	// carrying one must not be run more than once; grids need NewWorkload.
	Workload workload.Source

	// NewWorkload, when non-nil, constructs a fresh workload source for
	// each run from the run's seed and load — the form grid execution
	// needs, and the hook through which non-homogeneous arrival processes
	// (workload.NewInhomogeneous) enter a sweep. Takes precedence over
	// Workload.
	NewWorkload func(seed int64, jobsPerHour float64) workload.Source

	// Faults configures node churn (failures, repairs, decommissions,
	// late joins; see cluster.FaultModel). The zero value — the default —
	// simulates the paper's never-failing cluster, bit-identically to
	// builds that predate node dynamics: fault randomness branches off a
	// dedicated SplitMix64 seed stream and never touches the workload or
	// engine draws.
	Faults cluster.FaultModel

	// Trace, when non-nil, records job/subjob lifecycle events and
	// periodic cluster samples.
	Trace *trace.Recorder
	// SampleEvery is the cluster sampling period for Trace, in seconds
	// (default 1 hour when Trace is set).
	SampleEvery float64

	// Hooks, when non-nil, runs after the cluster is built and fully
	// wired (policy attached, collector and fault callbacks installed)
	// and before the first arrival. It may wrap the cluster's callbacks —
	// internal/simtest instruments invariant checking through it. Hooks
	// must not retain state across runs when the scenario is used in a
	// grid: every cell invokes the same closure, concurrently under
	// parallel execution.
	//
	// Everything the hook can reach stays valid after the run: the
	// cluster, its engine and nodes, the node caches, and the subjobs and
	// jobs still running. A run with Hooks set therefore gives none of its
	// storage back for reuse (see RunE).
	Hooks func(*cluster.Cluster)
}

// Result summarises one simulation run. The JSON field names are the wire
// format served by cmd/physchedd and stored by internal/resultcache; they
// are pinned by golden-file tests and must not change incompatibly.
type Result struct {
	Scenario   Scenario `json:"-"`
	PolicyName string   `json:"policy"`
	Load       float64  `json:"load_jobs_per_hour"`

	Overloaded   bool    `json:"overloaded"`
	AvgSpeedup   float64 `json:"avg_speedup"`
	AvgWaiting   float64 `json:"avg_waiting_sec"`    // seconds
	MaxWaiting   float64 `json:"max_waiting_sec"`    // seconds
	P99Waiting   float64 `json:"p99_waiting_sec"`    // seconds
	AvgProc      float64 `json:"avg_processing_sec"` // seconds
	MeasuredJobs int     `json:"measured_jobs"`
	SimTime      float64 `json:"sim_time_sec"` // seconds of simulated time covered
	// Goodput is the fraction of computed event-work that survived —
	// 1 − EventsLost/(events processed from all sources). Only set for
	// fault-enabled scenarios (omitted otherwise, keeping fault-free
	// encodings byte-identical to earlier builds); the raw wasted-work
	// and re-execution counters live in Cluster.
	Goodput float64       `json:"goodput,omitempty"`
	Cluster cluster.Stats `json:"cluster"`
	// Collector holds the full per-job record of the run. Run keeps it;
	// grid execution drops it unless Options.KeepCollectors is set, so
	// sweeps retain only the summary above instead of pinning every
	// job's lifecycle in memory.
	Collector *metrics.Collector `json:"-"`
}

// Stored is the cacheable summary form of the result: no Collector (it
// would pin every job record) and no Scenario (closures don't
// serialise). Every result-cache write — grid execution and the
// physchedd spec endpoint — stores exactly this shape, so cache hits
// and fresh runs serialise byte-identically.
func (r Result) Stored() Result {
	r.Scenario = Scenario{}
	r.Collector = nil
	return r
}

// withDefaults fills unset scenario fields.
func (s Scenario) withDefaults() Scenario {
	if s.WarmupJobs == 0 {
		s.WarmupJobs = 150
	}
	if s.MeasureJobs == 0 {
		s.MeasureJobs = 600
	}
	if s.OverloadBacklog == 0 {
		s.OverloadBacklog = int64(25 * s.Params.Nodes)
	}
	if s.MaxSimTime == 0 {
		s.MaxSimTime = 2 * 365 * model.Day
	}
	return s
}

// Validate reports the first problem that would prevent the scenario from
// running: invalid cluster parameters, a missing policy constructor, or a
// non-positive load with no explicit workload source. Spec compilation
// (internal/spec) calls it so invalid configurations fail at spec-build
// time rather than mid-execution.
func (s Scenario) Validate() error {
	if err := s.Params.Validate(); err != nil {
		return fmt.Errorf("lab: invalid params: %w", err)
	}
	if s.NewPolicy == nil {
		return fmt.Errorf("lab: Scenario.NewPolicy is nil")
	}
	if s.Workload == nil && s.NewWorkload == nil && s.Load <= 0 {
		return fmt.Errorf("lab: Load must be positive for the synthetic workload, got %v", s.Load)
	}
	if s.WarmupJobs < 0 || s.MeasureJobs < 0 {
		return fmt.Errorf("lab: negative job window (warmup %d, measure %d)", s.WarmupJobs, s.MeasureJobs)
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	return nil
}

// Run executes one scenario to completion, panicking on an invalid
// scenario. Prefer RunE where an error can be handled.
func Run(s Scenario) Result {
	res, err := RunE(s)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE executes one scenario to completion, reporting invalid scenarios
// as errors instead of panicking.
//
// A run without Hooks gives its growable storage back when it ends —
// the node caches, the random sources RunE seeded and, when RunE built
// the synthetic generator itself, the job and subjob arenas — and later
// runs reuse it. Nothing outside RunE can reach that storage by then:
// the Result holds values only, and the jobs of a Workload or
// NewWorkload source, with the subjobs they may list, are never
// released.
func RunE(s Scenario) (Result, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	eng := sim.New()
	policy := s.NewPolicy()
	cl := cluster.New(eng, s.Params, policy.ClusterConfig())
	faulted := s.Faults.Enabled()
	var frng *rand.Rand // nil unless the run has faults
	if faulted {
		// Spare nodes must exist before Attach so policies that size
		// their structures off Nodes() see the full roster.
		frng = freelist.Rand(DeriveSeed(s.Seed, faultSeedStream))
		if err := cluster.InstallFaults(cl, s.Faults, frng); err != nil {
			return Result{}, err
		}
	}
	policy.Attach(cl)

	coll := metrics.NewCollector(s.Params, s.WarmupJobs, s.MeasureJobs)
	coll.DelayIncluded = s.DelayIncluded
	cl.JobDone = coll.JobFinished
	cl.SubjobDone = policy.SubjobDone
	admit := policy.JobArrived
	if faulted {
		rq := &requeuer{c: cl, policy: policy}
		admit = rq.jobArrived
		cl.SubjobDone = rq.subjobDone
		cl.NodeDown = rq.nodeDown
		cl.NodeUp = rq.nodeUp
	}

	var gen workload.Source
	var synth *workload.Generator // the generator RunE built, if any
	switch {
	case s.NewWorkload != nil:
		gen = s.NewWorkload(s.Seed+1, s.Load)
	case s.Workload != nil:
		gen = s.Workload
	default:
		synth = workload.NewSeeded(s.Params, s.Seed+1, s.Load)
		gen = synth
	}

	if s.Trace != nil {
		cl.Tracer = s.Trace
		period := s.SampleEvery
		if period <= 0 {
			period = model.Hour
		}
		var sample func()
		sample = func() {
			busy := 0
			var cacheUsed int64
			for _, n := range cl.Nodes() {
				// Running, not !Idle: a down node is never idle but is
				// not busy either.
				if n.Running() != nil {
					busy++
				}
				cacheUsed += n.Cache.Used()
			}
			st := cl.Stats()
			total := st.EventsFromCache + st.EventsFromRemote + st.EventsFromTape
			hit := 0.0
			if total > 0 {
				hit = float64(st.EventsFromCache) / float64(total)
			}
			s.Trace.Add(trace.Event{
				Time: eng.Now(), Kind: trace.Sample,
				BusyNodes: busy, Backlog: coll.Backlog(),
				CacheUsed: cacheUsed, CacheHitRate: hit,
			})
			eng.After(period, sample)
		}
		eng.After(period, sample)
	}

	if s.Hooks != nil {
		s.Hooks(cl)
	}

	overloaded := false
	exhausted := false // a finite workload source returned nil
	var scheduleArrival func()
	// One shared callback serves every arrival (the job travels as the
	// timer argument), so the arrival chain allocates nothing per job.
	arrive := func(a any) {
		j := a.(*job.Job)
		coll.JobArrived(j)
		if s.Trace != nil {
			s.Trace.Add(trace.Event{Time: eng.Now(), Kind: trace.JobArrived, JobID: j.ID, Events: j.Events()})
		}
		admit(j)
		if coll.Backlog() >= s.OverloadBacklog {
			overloaded = true
			return // stop feeding; the run ends below
		}
		scheduleArrival()
	}
	scheduleArrival = func() {
		j := gen.Next()
		if j == nil {
			exhausted = true
			return
		}
		eng.AtCall(j.Arrival, arrive, j)
	}
	scheduleArrival()

	drained := false // a finite workload trace ran out of jobs
	for !coll.Done() && !overloaded && eng.Now() < s.MaxSimTime {
		// A fault-enabled engine never empties — every repair arms the
		// next failure — so a finite workload ends when its last job
		// does, not when the queue drains. (Fault-free runs keep the
		// drain exit untouched: their event tail — aging timers and the
		// like — is part of the pinned behaviour.)
		if faulted && exhausted && coll.Backlog() == 0 {
			drained = true
			break
		}
		if !eng.Step() {
			drained = true
			break
		}
	}
	complete := coll.Done() || drained

	if !overloaded && complete && waitingDiverges(coll, s.Params) {
		overloaded = true
	}
	res := Result{
		Scenario:     s,
		PolicyName:   policy.Name(),
		Load:         s.Load,
		Overloaded:   overloaded,
		MeasuredJobs: coll.MeasuredCount(),
		SimTime:      eng.Now(),
		Cluster:      cl.Stats(),
		Collector:    coll,
	}
	if faulted {
		st := res.Cluster
		if total := st.EventsFromCache + st.EventsFromRemote + st.EventsFromTape; total > 0 {
			res.Goodput = 1 - float64(st.EventsLost)/float64(total)
		}
	}
	if !overloaded && complete && coll.MeasuredCount() > 0 {
		res.AvgSpeedup = coll.AvgSpeedup()
		res.AvgWaiting = coll.AvgWaiting()
		res.MaxWaiting = coll.MaxWaiting()
		res.P99Waiting = coll.WaitingQuantile(0.99)
		res.AvgProc = coll.AvgProcessing()
	} else {
		res.Overloaded = true
	}
	if s.Hooks == nil {
		cl.ReleaseCaches()
		// A job can list suspended subjobs, so the subjob arena goes back
		// only together with the jobs: when they came from a caller's
		// source, the caller can still reach both.
		if synth != nil {
			cl.Arena().Release()
			synth.Release()
		}
		if frng != nil {
			freelist.PutRand(frng)
		}
	}
	return res, nil
}

// waitingDiverges detects the out-of-steady-state regime the paper cuts
// its curves at: a clearly positive linear trend of waiting time over the
// measurement window, amounting to more than two mean service times of
// growth. In steady state the trend is statistical noise around zero; in
// overload it grows without bound at a rate of roughly (utilisation−1)
// seconds per second.
func waitingDiverges(coll *metrics.Collector, p model.Params) bool {
	xs := coll.Arrivals()
	ys := coll.ReportedWaitings()
	if len(xs) < 50 {
		return false
	}
	slope := stats.LinearTrend(xs, ys)
	if slope < 0.01 {
		return false
	}
	span := xs[len(xs)-1] - xs[0]
	meanService := float64(p.MeanJobEvents) * p.EventTimeCached()
	if slope*span <= 2*meanService {
		return false
	}
	// Guard against periodic sawtooths (delayed scheduling: waiting rises
	// within each accumulation batch and resets at the next): genuine
	// divergence also shows in the second half clearly dominating the
	// first.
	half := len(ys) / 2
	var m1, m2 float64
	for _, y := range ys[:half] {
		m1 += y
	}
	for _, y := range ys[half:] {
		m2 += y
	}
	m1 /= float64(half)
	m2 /= float64(len(ys) - half)
	return m2 > 1.5*m1+0.25*meanService
}
