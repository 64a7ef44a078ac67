// Package spec is the declarative scenario layer: serialisable,
// canonical, JSON-round-trippable descriptions of simulation scenarios
// (Spec) and scenario grids (Grid), in place of the Go closures that
// parameterise lab.Scenario. Policies and workloads are referenced by
// name and resolved through the fixed tables of built-ins in
// internal/sched and internal/workload, so a spec can be stored in a
// version-controlled file, submitted to the physchedd service, hashed for
// content-addressed result caching (internal/resultcache), and replayed
// bit-identically.
//
// Canonical form: Canonical returns the spec's canonical JSON encoding —
// compact, field-ordered, with defaults normalised (empty preset →
// "calibrated", empty workload → "poisson", version 0 → 1) — and Hash its
// SHA-256. Two specs meaning the same scenario hash identically;
// encode→decode→encode of a canonical encoding is byte-identical.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"physched/internal/cluster"
	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/sched"
	"physched/internal/workload"
)

// Version is the current spec schema version. Encodings carry it so old
// spec files keep a well-defined meaning as the schema grows.
const Version = 1

// Params is the declarative cluster-parameter overlay: a preset selects
// the paper configuration and non-zero fields override it one by one.
type Params struct {
	// Preset is "calibrated" (default) or "stated"; see model.PaperStated
	// and model.PaperCalibrated.
	Preset string `json:"preset,omitempty"`

	// Cluster overrides; zero values keep the preset's.
	Nodes         int     `json:"nodes,omitempty"`
	CacheGB       int64   `json:"cache_gb,omitempty"`
	MeanJobEvents int64   `json:"mean_job_events,omitempty"`
	DataspaceGB   int64   `json:"dataspace_gb,omitempty"`
	HotWeight     float64 `json:"hot_weight,omitempty"` // -1 disables hotspots
	// PipelinedTransfers overlaps transfers with computation (§7
	// extension).
	PipelinedTransfers bool `json:"pipelined_transfers,omitempty"`
}

// Model resolves the overlay into validated model parameters.
func (p Params) Model() (model.Params, error) {
	var params model.Params
	switch p.Preset {
	case "", "calibrated":
		params = model.PaperCalibrated()
	case "stated":
		params = model.PaperStated()
	default:
		return model.Params{}, fmt.Errorf("spec: unknown preset %q (want calibrated or stated)", p.Preset)
	}
	// Zero means "keep the preset's value"; a negative override is a typo
	// and must not silently simulate the preset (HotWeight alone documents
	// negative-means-disable).
	switch {
	case p.Nodes < 0:
		return model.Params{}, fmt.Errorf("spec: nodes must be non-negative, got %d", p.Nodes)
	case p.CacheGB < 0:
		return model.Params{}, fmt.Errorf("spec: cache_gb must be non-negative, got %d", p.CacheGB)
	case p.MeanJobEvents < 0:
		return model.Params{}, fmt.Errorf("spec: mean_job_events must be non-negative, got %d", p.MeanJobEvents)
	case p.DataspaceGB < 0:
		return model.Params{}, fmt.Errorf("spec: dataspace_gb must be non-negative, got %d", p.DataspaceGB)
	}
	if p.Nodes > 0 {
		params.Nodes = p.Nodes
	}
	if p.CacheGB > 0 {
		params.CacheBytes = p.CacheGB * model.GB
	}
	if p.MeanJobEvents > 0 {
		params.MeanJobEvents = p.MeanJobEvents
	}
	if p.DataspaceGB > 0 {
		params.DataspaceBytes = p.DataspaceGB * model.GB
	}
	switch {
	case p.HotWeight < 0:
		params.HotWeight = 0
	case p.HotWeight > 0:
		params.HotWeight = p.HotWeight
	}
	params.PipelinedTransfers = p.PipelinedTransfers
	if err := params.Validate(); err != nil {
		return model.Params{}, err
	}
	return params, nil
}

func (p Params) normalize() Params {
	if p.Preset == "" {
		p.Preset = "calibrated"
	}
	return p
}

// Policy selects a built-in scheduling policy by name plus its
// serialisable parameters (see sched.New and sched.Args).
type Policy struct {
	// Name is one of sched.Names(): farm | splitting | cacheoriented |
	// outoforder | replication | delayed | adaptive | partitioned |
	// affinefarm.
	Name string `json:"name"`
	// DelayHours is the delayed policy's period, in hours.
	DelayHours float64 `json:"delay_hours,omitempty"`
	// StripeEvents is the stripe size for delayed/adaptive policies.
	StripeEvents int64 `json:"stripe_events,omitempty"`
	// MaxWaitHours overrides the out-of-order aging limit (default 48 h).
	MaxWaitHours float64 `json:"max_wait_hours,omitempty"`
}

// args is the policy's parameters as sched.New and sched.Check take them.
func (p Policy) args() sched.Args {
	return sched.Args{
		DelayHours:   p.DelayHours,
		StripeEvents: p.StripeEvents,
		MaxWaitHours: p.MaxWaitHours,
	}
}

// Workload selects a built-in job-stream kind by name plus its
// serialisable parameters (see workload.Resolve and workload.Args). The
// zero value is the paper's homogeneous Poisson stream.
type Workload struct {
	// Name is one of workload.Names(): poisson (default) | daynight.
	Name string `json:"name,omitempty"`
	// Swing is the day/night contrast in [0,1) for the daynight kind.
	Swing float64 `json:"swing,omitempty"`
	// PeakJobsPerHour bounds the thinning envelope of inhomogeneous
	// kinds; zero means the kind's natural peak.
	PeakJobsPerHour float64 `json:"peak_jobs_per_hour,omitempty"`
}

// args binds the workload's knobs to one run's parameters, seed and rate.
func (w Workload) args(params model.Params, seed int64, jobsPerHour float64) workload.Args {
	return workload.Args{
		Params:          params,
		Seed:            seed,
		JobsPerHour:     jobsPerHour,
		Swing:           w.Swing,
		PeakJobsPerHour: w.PeakJobsPerHour,
	}
}

func (w Workload) normalize() Workload {
	if w.Name == "" {
		w.Name = "poisson"
	}
	return w
}

// Faults is the declarative node-churn block, mirroring
// cluster.FaultModel field by field. The zero value — and an absent
// "faults" key — means the paper's never-failing cluster and encodes to
// nothing, so specs written before node dynamics existed keep their
// hashes.
type Faults struct {
	// MTBFHours is each up node's mean time between failures, in hours.
	// Zero disables failures.
	MTBFHours float64 `json:"mtbf_hours,omitempty"`
	// RepairHours is the mean repair time; zero means the default
	// (cluster.DefaultRepairHours), which canonicalisation makes explicit.
	RepairHours float64 `json:"repair_hours,omitempty"`
	// DayNightSwing in [0,1) modulates the failure rate over a 24 h cycle.
	DayNightSwing float64 `json:"daynight_swing,omitempty"`
	// CacheLoss wipes the failing node's disk cache.
	CacheLoss bool `json:"cache_loss,omitempty"`
	// DecommissionProb is the probability a failure is permanent.
	DecommissionProb float64 `json:"decommission_prob,omitempty"`
	// SpareNodes is the number of extra nodes that join the cluster late.
	SpareNodes int `json:"spare_nodes,omitempty"`
	// JoinHours is the mean time until a spare joins; zero means the
	// default (cluster.DefaultJoinHours), made explicit by normalisation.
	JoinHours float64 `json:"join_hours,omitempty"`
}

// Model resolves the block into a validated cluster.FaultModel.
func (f Faults) Model() (cluster.FaultModel, error) {
	m := cluster.FaultModel{
		MTBFHours:        f.MTBFHours,
		RepairHours:      f.RepairHours,
		DayNightSwing:    f.DayNightSwing,
		CacheLoss:        f.CacheLoss,
		DecommissionProb: f.DecommissionProb,
		SpareNodes:       f.SpareNodes,
		JoinHours:        f.JoinHours,
	}
	if err := m.Validate(); err != nil {
		return cluster.FaultModel{}, err
	}
	return m.WithDefaults(), nil
}

// normalize fills the defaulted time constants so a spec relying on them
// hashes identically to one naming them. The default rules live solely
// in cluster.FaultModel.WithDefaults (via Model), so the canonical form
// cannot drift from what actually runs. A disabled block stays zero, and
// an invalid one passes through for Validate to report.
func (f Faults) normalize() Faults {
	m, err := f.Model()
	if err != nil {
		return f
	}
	return Faults{
		MTBFHours:        m.MTBFHours,
		RepairHours:      m.RepairHours,
		DayNightSwing:    m.DayNightSwing,
		CacheLoss:        m.CacheLoss,
		DecommissionProb: m.DecommissionProb,
		SpareNodes:       m.SpareNodes,
		JoinHours:        m.JoinHours,
	}
}

// Spec is one declarative simulation scenario: everything lab.Scenario
// expresses, minus the closures. It is the unit of canonicalisation,
// hashing and caching.
type Spec struct {
	// SchemaVersion is the spec schema version; zero means current.
	SchemaVersion int `json:"version,omitempty"`

	Params   Params   `json:"params,omitzero"`
	Policy   Policy   `json:"policy"`
	Workload Workload `json:"workload,omitzero"`
	Faults   Faults   `json:"faults,omitzero"`

	// Load is the mean arrival rate, in jobs per hour.
	Load float64 `json:"load_jobs_per_hour"`
	// Seed drives all randomness of the run.
	Seed int64 `json:"seed,omitempty"`

	WarmupJobs      int   `json:"warmup_jobs,omitempty"`
	MeasureJobs     int   `json:"measure_jobs,omitempty"`
	OverloadBacklog int64 `json:"overload_backlog,omitempty"`
	// MaxSimTimeDays caps the simulated time, in days (default 2 years).
	MaxSimTimeDays float64 `json:"max_sim_time_days,omitempty"`
	// DelayIncluded reports waiting times including the scheduling delay.
	DelayIncluded bool `json:"delay_included,omitempty"`
}

// Parse reads one JSON spec, rejecting unknown fields so typos in spec
// files fail loudly.
func Parse(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	return s, nil
}

// Validate reports the first problem that would prevent the spec from
// compiling: an unsupported schema version, invalid parameters, an
// unknown policy or workload name, invalid policy or workload arguments,
// or a non-positive load.
func (s Spec) Validate() error {
	if s.SchemaVersion != 0 && s.SchemaVersion != Version {
		return fmt.Errorf("spec: unsupported schema version %d (this build supports %d)", s.SchemaVersion, Version)
	}
	params, err := s.Params.Model()
	if err != nil {
		return err
	}
	if err := sched.Check(s.Policy.Name, s.Policy.args()); err != nil {
		return err
	}
	if s.Load <= 0 {
		return fmt.Errorf("spec: load_jobs_per_hour must be positive, got %v", s.Load)
	}
	if err := workload.Check(s.Workload.Name, s.Workload.args(params, s.Seed, s.Load)); err != nil {
		return err
	}
	if _, err := s.Faults.Model(); err != nil {
		return fmt.Errorf("spec: faults: %w", err)
	}
	if s.WarmupJobs < 0 || s.MeasureJobs < 0 {
		return fmt.Errorf("spec: negative job window (warmup %d, measure %d)", s.WarmupJobs, s.MeasureJobs)
	}
	if s.OverloadBacklog < 0 {
		return fmt.Errorf("spec: overload_backlog must be non-negative, got %d", s.OverloadBacklog)
	}
	if s.MaxSimTimeDays < 0 {
		return fmt.Errorf("spec: max_sim_time_days must be non-negative, got %v", s.MaxSimTimeDays)
	}
	return nil
}

// Normalize returns the spec with every defaulted field made explicit —
// the form Canonical encodes. It never validates: callers embedding specs
// in larger canonical documents (internal/opt studies, whose base spec may
// deliberately leave fields for search axes to bind) normalise first and
// validate the fully resolved spec later.
func (s Spec) Normalize() Spec { return s.normalize() }

// normalize fills the defaults that have named spellings, so equivalent
// specs share one canonical encoding and therefore one hash.
func (s Spec) normalize() Spec {
	if s.SchemaVersion == 0 {
		s.SchemaVersion = Version
	}
	s.Params = s.Params.normalize()
	s.Workload = s.Workload.normalize()
	s.Faults = s.Faults.normalize()
	return s
}

// Canonical returns the spec's canonical encoding: compact JSON of the
// normalised, validated spec with the schema's fixed field order.
// Encoding, decoding and re-encoding a canonical form is byte-identical.
func (s Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.normalize())
}

// Hash is the hex SHA-256 of the canonical encoding — the spec's content
// address, used as the result-cache key and the physchedd result handle.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Scenario compiles the spec into a runnable lab.Scenario, resolving the
// policy and workload names through sched and workload. All validation
// happens here; the returned scenario's closures cannot fail.
func (s Spec) Scenario() (lab.Scenario, error) {
	if err := s.Validate(); err != nil {
		return lab.Scenario{}, err
	}
	params, err := s.Params.Model()
	if err != nil {
		return lab.Scenario{}, err
	}
	faults, err := s.Faults.Model()
	if err != nil {
		return lab.Scenario{}, err
	}
	policy, args, wl := s.Policy.Name, s.Policy.args(), s.Workload
	sc := lab.Scenario{
		Params: params,
		NewPolicy: func() sched.Policy {
			p, err := sched.New(policy, args)
			if err != nil {
				panic(err) // validated above; the policy table is fixed
			}
			return p
		},
		Load:            s.Load,
		Seed:            s.Seed,
		WarmupJobs:      s.WarmupJobs,
		MeasureJobs:     s.MeasureJobs,
		OverloadBacklog: s.OverloadBacklog,
		MaxSimTime:      s.MaxSimTimeDays * model.Day,
		DelayIncluded:   s.DelayIncluded,
		Faults:          faults,
	}
	// The paper's Poisson stream is lab's own synthetic workload, which
	// the run builds, owns and recycles. Other kinds come through
	// NewWorkload, called with the same seed (run seed + 1).
	if wl.normalize().Name != "poisson" {
		sc.NewWorkload = func(seed int64, jobsPerHour float64) workload.Source {
			src, err := workload.Resolve(wl.Name, wl.args(params, seed, jobsPerHour))
			if err != nil {
				panic(err)
			}
			return src
		}
	}
	if err := sc.Validate(); err != nil {
		return lab.Scenario{}, err
	}
	return sc, nil
}
