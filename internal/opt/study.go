// Package opt is the budgeted scenario-search layer: it answers "which
// scheduling configuration is best for this workload?" by spending a
// bounded simulation budget over a declarative search space instead of
// enumerating a full grid. A Study names a base spec (internal/spec), a
// set of search axes (categorical policy/workload choices and numeric
// ranges on linear or log scales), an objective drawn from the lab's
// replica aggregates, and a search block (algorithm, budget in cells,
// replications, seed). Like spec.Spec, a Study is serialisable, canonical
// and content-hashed, so the physchedd service can address a finished
// study's report by hash.
//
// Two search drivers run behind one interface: seeded random search and
// successive halving (rungs of increasing replications, survivors chosen
// by a CI-aware comparison so statistically tied candidates are not
// pruned arbitrarily). Every candidate evaluation executes through
// lab.Grid.Execute on the caller's pool with the content-addressed result
// cache, so repeated or resumed studies re-simulate nothing and serial,
// parallel and shared-pool runs produce byte-identical reports.
package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"physched/internal/lab"
	"physched/internal/spec"
)

// Version is the current study schema version.
const Version = 1

// maxSpaceSize bounds the enumerated candidate space: the search is
// budgeted, but the space itself must stay enumerable in memory.
const maxSpaceSize = 1 << 16

// Axis is one named dimension of the search space. Exactly one form is
// used per axis: categorical (Values, for the policy/workload/preset
// axes) or numeric (Min/Max/Steps/Scale, for everything else). Numeric
// axes are discretised into Steps points spaced linearly or
// logarithmically, so the space stays enumerable and content-hashable.
type Axis struct {
	// Name selects what the axis binds; see AxisNames.
	Name string `json:"name"`
	// Values are the categorical choices (policy or workload names).
	Values []string `json:"values,omitempty"`
	// Min and Max bound a numeric range, Steps ≥ 2 points over it.
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// Scale is "linear" (default) or "log"; log requires Min > 0.
	Scale string `json:"scale,omitempty"`
}

// categorical reports whether the axis enumerates named choices.
func (a Axis) categorical() bool { return len(a.Values) > 0 }

// points returns the numeric axis's discrete values.
func (a Axis) points() []float64 {
	out := make([]float64, a.Steps)
	for i := range out {
		t := float64(i) / float64(a.Steps-1)
		if a.Scale == "log" {
			out[i] = math.Exp(math.Log(a.Min) + t*(math.Log(a.Max)-math.Log(a.Min)))
		} else {
			out[i] = a.Min + t*(a.Max-a.Min)
		}
	}
	// The endpoints are part of the study's meaning; pin them against
	// floating-point drift in the interpolation.
	out[0], out[len(out)-1] = a.Min, a.Max
	return out
}

// size is the number of choices the axis contributes.
func (a Axis) size() int {
	if a.categorical() {
		return len(a.Values)
	}
	return a.Steps
}

// label renders choice i for candidate labels and report entries. Axes
// applied as integers (stripe sizes, node counts, …) label the rounded
// value actually simulated, not the raw interpolation point.
func (a Axis) label(i int) string {
	if a.categorical() {
		return a.Values[i]
	}
	v := a.points()[i]
	if axisDefs[a.Name].integer {
		v = math.Round(v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (a Axis) normalize() Axis {
	if !a.categorical() && a.Scale == "" {
		a.Scale = "linear"
	}
	return a
}

// validate checks one axis in isolation (name known, exactly one form,
// sane range). Candidate-level validity — e.g. a policy that rejects a
// parameter another axis sets — is checked per candidate by Study.space.
func (a Axis) validate() error {
	def, ok := axisDefs[a.Name]
	if !ok {
		return fmt.Errorf("opt: unknown axis %q (known: %v)", a.Name, AxisNames())
	}
	if a.categorical() {
		if !def.categorical {
			return fmt.Errorf("opt: axis %q is numeric, it takes min/max/steps not values", a.Name)
		}
		if a.Min != 0 || a.Max != 0 || a.Steps != 0 || a.Scale != "" {
			return fmt.Errorf("opt: categorical axis %q must not set min/max/steps/scale", a.Name)
		}
		seen := map[string]bool{}
		for _, v := range a.Values {
			if v == "" {
				return fmt.Errorf("opt: axis %q has an empty value", a.Name)
			}
			if seen[v] {
				return fmt.Errorf("opt: axis %q repeats value %q", a.Name, v)
			}
			seen[v] = true
		}
		return nil
	}
	if def.categorical {
		return fmt.Errorf("opt: axis %q is categorical, it takes values not min/max/steps", a.Name)
	}
	if a.Steps < 2 {
		return fmt.Errorf("opt: numeric axis %q needs steps ≥ 2, got %d", a.Name, a.Steps)
	}
	if !(a.Min < a.Max) {
		return fmt.Errorf("opt: numeric axis %q needs min < max, got [%v, %v]", a.Name, a.Min, a.Max)
	}
	switch a.Scale {
	case "", "linear":
	case "log":
		if a.Min <= 0 {
			return fmt.Errorf("opt: log-scale axis %q needs min > 0, got %v", a.Name, a.Min)
		}
	default:
		return fmt.Errorf("opt: axis %q has unknown scale %q (want linear or log)", a.Name, a.Scale)
	}
	return nil
}

// axisDef binds an axis name to the spec field it mutates.
type axisDef struct {
	categorical bool
	// integer marks axes whose points round to whole numbers on
	// application (and in labels).
	integer  bool
	applyCat func(*spec.Spec, string)
	applyNum func(*spec.Spec, float64)
}

var axisDefs = map[string]axisDef{
	"policy":   {categorical: true, applyCat: func(s *spec.Spec, v string) { s.Policy.Name = v }},
	"workload": {categorical: true, applyCat: func(s *spec.Spec, v string) { s.Workload.Name = v }},
	"preset":   {categorical: true, applyCat: func(s *spec.Spec, v string) { s.Params.Preset = v }},

	"load":               {applyNum: func(s *spec.Spec, v float64) { s.Load = v }},
	"delay_hours":        {applyNum: func(s *spec.Spec, v float64) { s.Policy.DelayHours = v }},
	"stripe_events":      {integer: true, applyNum: func(s *spec.Spec, v float64) { s.Policy.StripeEvents = int64(math.Round(v)) }},
	"max_wait_hours":     {applyNum: func(s *spec.Spec, v float64) { s.Policy.MaxWaitHours = v }},
	"nodes":              {integer: true, applyNum: func(s *spec.Spec, v float64) { s.Params.Nodes = int(math.Round(v)) }},
	"cache_gb":           {integer: true, applyNum: func(s *spec.Spec, v float64) { s.Params.CacheGB = int64(math.Round(v)) }},
	"mean_job_events":    {integer: true, applyNum: func(s *spec.Spec, v float64) { s.Params.MeanJobEvents = int64(math.Round(v)) }},
	"dataspace_gb":       {integer: true, applyNum: func(s *spec.Spec, v float64) { s.Params.DataspaceGB = int64(math.Round(v)) }},
	"hot_weight":         {applyNum: func(s *spec.Spec, v float64) { s.Params.HotWeight = v }},
	"swing":              {applyNum: func(s *spec.Spec, v float64) { s.Workload.Swing = v }},
	"peak_jobs_per_hour": {applyNum: func(s *spec.Spec, v float64) { s.Workload.PeakJobsPerHour = v }},
	"mtbf_hours":         {applyNum: func(s *spec.Spec, v float64) { s.Faults.MTBFHours = v }},
	"repair_hours":       {applyNum: func(s *spec.Spec, v float64) { s.Faults.RepairHours = v }},
	"fault_swing":        {applyNum: func(s *spec.Spec, v float64) { s.Faults.DayNightSwing = v }},
	"decommission_prob":  {applyNum: func(s *spec.Spec, v float64) { s.Faults.DecommissionProb = v }},
	"spare_nodes":        {integer: true, applyNum: func(s *spec.Spec, v float64) { s.Faults.SpareNodes = int(math.Round(v)) }},
	"join_hours":         {applyNum: func(s *spec.Spec, v float64) { s.Faults.JoinHours = v }},
}

// AxisNames lists the axis names a study may search over, sorted.
func AxisNames() []string {
	out := make([]string, 0, len(axisDefs))
	for name := range axisDefs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Objective selects the scalar a study optimises, computed from the
// replica aggregate of each candidate (lab.Aggregate over the candidate's
// seeds). Candidates whose every replica overloaded have no objective
// value and rank below all steady candidates.
type Objective struct {
	// Metric is mean_speedup | mean_waiting | p99_waiting | goodput.
	Metric string `json:"metric"`
	// Direction is "max" or "min"; empty defaults per metric (waiting
	// metrics minimise, the rest maximise).
	Direction string `json:"direction,omitempty"`
}

// defaultDirection is the natural optimisation sense of a metric.
func defaultDirection(metric string) string {
	switch metric {
	case "mean_waiting", "p99_waiting":
		return "min"
	default:
		return "max"
	}
}

// Metrics lists the objective metrics a study may optimise.
func Metrics() []string {
	return []string{"goodput", "mean_speedup", "mean_waiting", "p99_waiting"}
}

func (o Objective) normalize() Objective {
	if o.Direction == "" {
		o.Direction = defaultDirection(o.Metric)
	}
	return o
}

func (o Objective) validate() error {
	switch o.Metric {
	case "mean_speedup", "mean_waiting", "p99_waiting", "goodput":
	default:
		return fmt.Errorf("opt: unknown objective metric %q (known: %v)", o.Metric, Metrics())
	}
	switch o.Direction {
	case "", "max", "min":
	default:
		return fmt.Errorf("opt: objective direction %q must be max or min", o.Direction)
	}
	return nil
}

// Eval computes the objective value and its 95% confidence half-width
// from a candidate's replica aggregate. ok is false when no replica ran
// steadily — the candidate then has no value and ranks last.
func (o Objective) Eval(a lab.Aggregate) (value, ci95 float64, ok bool) {
	steady := a.Replicas - a.Overloaded
	if steady <= 0 {
		return 0, 0, false
	}
	switch o.Metric {
	case "mean_speedup":
		return a.SpeedupMean, a.SpeedupCI95, true
	case "mean_waiting":
		return a.WaitingMean, a.WaitingCI95, true
	case "p99_waiting":
		return replicaStat(a, func(r lab.Result) float64 { return r.P99Waiting })
	case "goodput":
		return replicaStat(a, func(r lab.Result) float64 { return r.Goodput })
	}
	return 0, 0, false
}

// replicaStat is the mean ± normal-approximation CI95 of f over the
// steady replicas.
func replicaStat(a lab.Aggregate, f func(lab.Result) float64) (float64, float64, bool) {
	var sum, sumsq float64
	n := 0
	for _, r := range a.Results {
		if r.Overloaded {
			continue
		}
		v := f(r)
		sum += v
		sumsq += v * v
		n++
	}
	if n == 0 {
		return 0, 0, false
	}
	mean := sum / float64(n)
	if n < 2 {
		return mean, 0, true
	}
	variance := (sumsq - sum*sum/float64(n)) / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return mean, 1.96 * math.Sqrt(variance) / math.Sqrt(float64(n)), true
}

// better reports whether value a improves on value b under the
// objective's direction.
func (o Objective) better(a, b float64) bool {
	if o.Direction == "min" {
		return a < b
	}
	return a > b
}

// Search configures the search driver and its budget.
type Search struct {
	// Algorithm is "random" (default) or "halving".
	Algorithm string `json:"algorithm,omitempty"`
	// BudgetCells bounds the simulation cells the study may charge: one
	// candidate evaluated at r replications costs r cells, and a cell
	// already charged by an earlier rung of the same study is free. Cells
	// served by the result cache still count — the budget bounds what the
	// study *asks for*, so a warm cache cannot change which candidates a
	// study explores (and therefore cannot change its report).
	BudgetCells int `json:"budget_cells"`
	// Replications is the number of replica seeds per candidate — the
	// final-rung count for successive halving. Default 1.
	Replications int `json:"replications,omitempty"`
	// Eta is the halving factor (survivor fraction 1/eta per rung);
	// default 3. Only the halving algorithm takes it.
	Eta int `json:"eta,omitempty"`
	// Seed drives candidate sampling. Simulation seeds derive from the
	// base spec's seed, never from this one.
	Seed int64 `json:"seed,omitempty"`
	// TopK bounds the report's leaderboard; default 10.
	TopK int `json:"top_k,omitempty"`
}

func (s Search) normalize() Search {
	if s.Algorithm == "" {
		s.Algorithm = "random"
	}
	if s.Replications == 0 {
		s.Replications = 1
	}
	if s.Algorithm == "halving" && s.Eta == 0 {
		s.Eta = 3
	}
	if s.TopK == 0 {
		s.TopK = 10
	}
	return s
}

func (s Search) validate() error {
	switch s.Algorithm {
	case "", "random", "halving":
	default:
		return fmt.Errorf("opt: unknown search algorithm %q (want random or halving)", s.Algorithm)
	}
	if s.BudgetCells <= 0 {
		return fmt.Errorf("opt: budget_cells must be positive, got %d", s.BudgetCells)
	}
	if s.Replications < 0 {
		return fmt.Errorf("opt: replications must be non-negative, got %d", s.Replications)
	}
	reps := s.Replications
	if reps == 0 {
		reps = 1
	}
	if s.BudgetCells < reps {
		return fmt.Errorf("opt: budget_cells %d cannot cover one candidate at %d replications", s.BudgetCells, reps)
	}
	if s.Algorithm != "halving" && s.Eta != 0 {
		return fmt.Errorf("opt: search algorithm %q does not take eta", s.Algorithm)
	}
	if s.Eta < 0 || s.Eta == 1 {
		return fmt.Errorf("opt: eta must be ≥ 2, got %d", s.Eta)
	}
	if s.TopK < 0 {
		return fmt.Errorf("opt: top_k must be non-negative, got %d", s.TopK)
	}
	return nil
}

// Study is one declarative, budgeted scenario search: the unit of
// canonicalisation and hashing, and the body of POST /v1/studies.
type Study struct {
	// SchemaVersion is the study schema version; zero means current.
	SchemaVersion int `json:"version,omitempty"`
	// Base is the spec every candidate starts from; axes overwrite the
	// fields they bind. Base.Load may be zero when a "load" axis binds it.
	Base spec.Spec `json:"base"`
	// Axes span the search space (cross product of their choices).
	Axes []Axis `json:"axes"`

	Objective Objective `json:"objective"`
	Search    Search    `json:"search"`
}

// Parse reads one JSON study, rejecting unknown fields so typos in study
// files fail loudly.
func Parse(r io.Reader) (Study, error) {
	var st Study
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return Study{}, fmt.Errorf("opt: %w", err)
	}
	return st, nil
}

// validateShallow checks everything but the candidate space: schema
// version, axes, objective and search block.
func (st Study) validateShallow() error {
	if st.SchemaVersion != 0 && st.SchemaVersion != Version {
		return fmt.Errorf("opt: unsupported study schema version %d (this build supports %d)", st.SchemaVersion, Version)
	}
	if len(st.Axes) == 0 {
		return fmt.Errorf("opt: study needs at least one axis")
	}
	seen := map[string]bool{}
	size := 1
	for _, a := range st.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("opt: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		size *= a.size()
		if size > maxSpaceSize {
			return fmt.Errorf("opt: search space exceeds %d candidates", maxSpaceSize)
		}
	}
	if err := st.Objective.validate(); err != nil {
		return err
	}
	return st.Search.validate()
}

// Prepared is a validated, normalised study with its content hash and
// enumerated candidate space. Parse → Prepare → Run does the space
// enumeration (which spec-validates and hashes every cross-product
// point) exactly once; cmd/physchedd prepares while planning a request
// and runs the same preparation later.
type Prepared struct {
	// Study is the normalised study.
	Study Study
	// Hash is the study's content address: the hex SHA-256 of the
	// canonical encoding, compact JSON of the normalised study. The
	// search block is part of it, so the same space explored by a
	// different algorithm, budget or sampling seed is a different study.
	Hash string

	sp *space
}

// Prepare validates, normalises, hashes and enumerates the study in one
// pass. It reports the first problem that would prevent the study from
// running: an unsupported schema version, an invalid axis, objective or
// search block, a duplicate axis name, an oversized space, or a space
// with no valid candidate.
func (st Study) Prepare() (*Prepared, error) {
	if err := st.validateShallow(); err != nil {
		return nil, err
	}
	norm := st.normalize()
	sp, err := norm.space()
	if err != nil {
		return nil, err
	}
	c, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(c)
	return &Prepared{Study: norm, Hash: hex.EncodeToString(sum[:]), sp: sp}, nil
}

// normalize fills the defaults that have named spellings, so equivalent
// studies share one canonical encoding and therefore one hash.
func (st Study) normalize() Study {
	if st.SchemaVersion == 0 {
		st.SchemaVersion = Version
	}
	st.Base = st.Base.Normalize()
	if len(st.Axes) > 0 {
		axes := make([]Axis, len(st.Axes))
		for i, a := range st.Axes {
			axes[i] = a.normalize()
		}
		st.Axes = axes
	}
	st.Objective = st.Objective.normalize()
	st.Search = st.Search.normalize()
	return st
}
