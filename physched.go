// Package physched is a discrete-event simulator and scheduling library
// reproducing "Parallelization and Scheduling of Data Intensive Particle
// Physics Analysis Jobs on Clusters of PCs" (Ponce & Hersch, IPDPS 2004).
//
// It models a cluster of PCs with node disk caches attached to a shared
// tertiary mass-storage system, a synthetic LHCb-style analysis workload
// (contiguous event segments, Erlang-distributed job sizes, hot data
// regions, Poisson arrivals), and the paper's six scheduling policies:
// processing farm, job splitting, cache-oriented job splitting,
// out-of-order scheduling (with an optional data-replication variant),
// delayed scheduling and adaptive-delay scheduling.
//
// Quick start:
//
//	params := physched.PaperCalibrated()
//	res := physched.Run(physched.Scenario{
//		Params:    params,
//		NewPolicy: physched.OutOfOrder,
//		Load:      1.5, // jobs per hour
//		Seed:      1,
//	})
//	fmt.Printf("speedup %.1f, waiting %.0fs\n", res.AvgSpeedup, res.AvgWaiting)
//
// Scenarios exist in two forms. The programmatic form (Scenario) carries
// Go closures and is what Run executes; a program adds a policy of its
// own by implementing Policy and handing Scenario.NewPolicy its
// constructor. The declarative form (GridSpec) is serialisable, canonical
// JSON whose policy and workload names resolve to the nine built-in
// policies and the two built-in workload kinds. A spec compiles into a
// Scenario, and the SHA-256 of a spec's canonical encoding
// content-addresses its result for caching (OpenResultCache) and for the
// cmd/physchedd HTTP service, which executes POSTed grid specs with
// streamed NDJSON progress and serves cached results by hash. A spec or
// grid file drives `physchedsim FILE` unchanged; see examples/specfile.
// On top of the spec layer, a study (internal/opt) searches the spec
// space under a simulation-cell budget — seeded random search or CI-aware
// successive halving — via `physchedsim study.json` or POST /v1/studies.
//
// The experiment recipes behind every figure of the paper live in
// internal/experiments; `physchedsim -fig ID|all` renders them as tables,
// ASCII plots and CSV.
package physched

import (
	"io"
	"math/rand"

	"physched/internal/cluster"
	"physched/internal/experiments"
	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/resultcache"
	"physched/internal/sched"
	"physched/internal/spec"
	"physched/internal/workload"
)

// Params describes the simulated cluster and workload; see PaperStated and
// PaperCalibrated for the paper's configurations.
type Params = model.Params

// Scenario is one simulation configuration (cluster parameters, policy,
// load, seed, measurement window).
type Scenario = lab.Scenario

// Result summarises one simulation run.
type Result = lab.Result

// Curve is a labelled series of results over a load axis (one figure line).
type Curve = lab.Curve

// Variant is one curve specification for SweepCurves.
type Variant = lab.Variant

// Options configure grid execution (worker bound, context, progress,
// result cache).
type Options = lab.Options

// ProgressUpdate reports one completed run of a grid.
type ProgressUpdate = lab.ProgressUpdate

// Policy is the scheduling-policy plugin interface.
type Policy = sched.Policy

// FaultModel configures node churn — stochastic failures (optionally
// day/night-modulated), repairs, permanent decommissions and late node
// joins — via Scenario.Faults. The zero value simulates the paper's
// never-failing cluster.
type FaultModel = cluster.FaultModel

// Figure is a reproduced paper figure.
type Figure = experiments.Figure

// Time units in seconds, for Scenario and policy parameters.
const (
	Minute = model.Minute
	Hour   = model.Hour
	Week   = model.Week
	GB     = model.GB
)

// PaperStated returns the parameters exactly as printed in §2.4 of the
// paper; PaperCalibrated adjusts effective throughputs so the paper's
// derived reference numbers (32 000 s reference job, 3.46 jobs/hour
// theoretical maximum, caching gain ≈3, farm maximum ≈1.1 jobs/hour) hold
// exactly. Use PaperCalibrated to compare against the paper's figures.
func PaperStated() Params     { return model.PaperStated() }
func PaperCalibrated() Params { return model.PaperCalibrated() }

// Policy constructors, one per paper policy.
func Farm() Policy          { return sched.NewFarm() }
func Splitting() Policy     { return sched.NewSplitting() }
func CacheOriented() Policy { return sched.NewCacheOriented() }
func OutOfOrder() Policy    { return sched.NewOutOfOrder() }
func Replication() Policy   { return sched.NewReplication() }

// Delayed returns the delayed-scheduling policy with the given period
// delay (seconds) and stripe size (events).
func Delayed(period float64, stripe int64) Policy { return sched.NewDelayed(period, stripe) }

// Adaptive returns the adaptive-delay policy with the given stripe size.
func Adaptive(stripe int64) Policy { return sched.NewAdaptive(stripe) }

// WorkloadSource yields the job stream of a scenario; Scenario.Workload
// accepts any implementation (the synthetic generator or a trace replay).
type WorkloadSource = workload.Source

// NewWorkloadGenerator returns the paper's synthetic job stream for the
// given parameters, seed and arrival rate in jobs per hour.
func NewWorkloadGenerator(p Params, seed int64, jobsPerHour float64) WorkloadSource {
	return workload.New(p, rand.New(rand.NewSource(seed)), jobsPerHour)
}

// ExportWorkload writes the next n jobs of src to w as JSON Lines;
// NewWorkloadReplay reads such a trace back as a replayable source.
func ExportWorkload(w io.Writer, src WorkloadSource, n int) error {
	return workload.Export(w, src, n)
}

// NewWorkloadReplay parses a JSONL workload trace written by
// ExportWorkload (or converted from production accounting logs).
func NewWorkloadReplay(r io.Reader) (WorkloadSource, error) {
	return workload.NewReplay(r)
}

// GridSpec is the declarative form of a scenario grid — a base spec
// crossed with variants, a load axis and a seed axis. GridSpec.Compile
// yields an executable grid; GridSpec.Keys feeds Options for result
// caching.
type GridSpec = spec.Grid

// ParseGridSpec reads a JSON grid spec file, rejecting unknown fields.
func ParseGridSpec(r io.Reader) (GridSpec, error) { return spec.ParseGrid(r) }

// ResultCache is a content-addressed store of results keyed by spec hash;
// set it (with GridSpec.Keys) on Options so re-executed grids skip every
// cell already simulated under the same key.
type ResultCache = lab.ResultCache

// OpenResultCache opens a result cache: in memory, backed by one
// checksummed file per entry under dir, or memory only when dir is empty.
func OpenResultCache(dir string) (ResultCache, error) {
	s, err := resultcache.Open(dir)
	if err != nil {
		return nil, err // a nil interface, not a typed nil *Store
	}
	return s, nil
}

// Run executes one scenario to completion, panicking on an invalid
// scenario.
func Run(s Scenario) Result { return lab.Run(s) }

// Sweep runs the scenario at each load (jobs/hour) on a bounded worker
// pool. Results carry summaries only; use Run for the full Collector.
func Sweep(s Scenario, loads []float64) []Result {
	rs, _ := lab.Grid{Base: s, Loads: loads}.Execute(lab.Options{})
	return rs.Results
}

// SweepCurves runs several policy variants over the same load grid.
func SweepCurves(s Scenario, loads []float64, vs []Variant) []Curve {
	rs, _ := lab.Grid{Base: s, Loads: loads, Variants: vs}.Execute(lab.Options{})
	return rs.Curves()
}

// SustainableLoad returns the highest of the given loads the scenario
// sustains without overload.
func SustainableLoad(s Scenario, loads []float64) float64 {
	return lab.SustainableLoad(s, loads, lab.Options{})
}
