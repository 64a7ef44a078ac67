// Package experiments defines one reproduction recipe per table and figure
// of the paper's evaluation (Figures 2-7, the §4.2 replication comparison,
// the §5.2 maximal-load experiment and the §3.1 M/Er/m reference) plus the
// ablation and extension studies, and the rendering of their results as
// text tables, ASCII plots and CSV.
//
// Every recipe exists in two sizes: Quick (benchmark/CI scale — fewer
// measured jobs and a sparser load grid; shapes hold, error bars are
// wider) and Full (the report scale).
//
// Most recipes are data: figures/{quick,full}/<id>.json holds a JSON
// array of spec.Grid documents, embedded in the binary and run through
// spec.Grid.Compile and lab.Grid.Execute, the path physchedd and
// `physchedsim FILE` use. Each element is a complete grid file those
// accept as-is. Go keeps the titles, notes, renderers and post-processing
// (replicated share, theory and farm maxima, the M/Er/m column, ablation
// rows), plus the recipes spec cannot express: fig4 (collectors and a load
// per variant), ab-eviction, ab-steal and ab-replication (data-path
// overrides), hetero (per-node speeds), nodes (node count per variant with
// a derived load) and tune (a spec study).
//
// Every recipe executes through an internal/lab grid; Configure installs
// the execution options (shared lab.Pool or per-call worker bound,
// cancellation context, progress hook) that all recipes share —
// `physchedsim -fig` wires one process-wide pool plus its -parallel,
// -timeout and -progress flags through it, so concurrent recipes cannot
// oversubscribe the host. Render runs one recipe by its id and renders
// it; AllFigureIDs lists the ids.
package experiments

import (
	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/sched"
)

// execOpts are the lab execution options shared by every recipe.
var execOpts lab.Options

// Configure installs the lab execution options used by all experiment
// recipes and returns the previous ones. It is not safe to call while
// experiments are running.
func Configure(o lab.Options) lab.Options {
	prev := execOpts
	execOpts = o
	return prev
}

// grid executes a variants × loads grid with the configured options.
func grid(base lab.Scenario, loads []float64, variants []lab.Variant) *lab.RunSet {
	rs, _ := lab.Grid{Base: base, Loads: loads, Variants: variants}.Execute(execOpts)
	return rs
}

// sweepCurves is the figure-shaped view of grid.
func sweepCurves(base lab.Scenario, loads []float64, variants []lab.Variant) []lab.Curve {
	return grid(base, loads, variants).Curves()
}

// Quality selects the scale of an experiment run.
type Quality int

const (
	// Quick is benchmark scale: ~250 measured jobs per point.
	Quick Quality = iota
	// Full is report scale: ~900 measured jobs per point.
	Full
)

func (q Quality) warmup() int {
	if q == Quick {
		return 100
	}
	return 200
}

func (q Quality) measure() int {
	if q == Quick {
		return 250
	}
	return 900
}

// Figure is the result of reproducing one paper figure: one or two panels
// (speedup and waiting time) of labelled curves over a load axis.
type Figure struct {
	Title  string
	Note   string
	Curves []lab.Curve
}

// baseScenario returns the paper-calibrated default scenario.
func baseScenario(q Quality, seed int64) lab.Scenario {
	return lab.Scenario{
		Params:      model.PaperCalibrated(),
		Seed:        seed,
		WarmupJobs:  q.warmup(),
		MeasureJobs: q.measure(),
	}
}

func loadGrid(q Quality, lo, hi float64) []float64 {
	steps := 9
	if q == Quick {
		steps = 6
	}
	var out []float64
	for i := 0; i < steps; i++ {
		out = append(out, lo+(hi-lo)*float64(i)/float64(steps-1))
	}
	return out
}

// Distribution is the Figure 4 result: waiting-time histograms near the
// maximal sustainable load.
type Distribution struct {
	Label     string
	Result    lab.Result
	Histogram string // rendered histogram
	Buckets   []Bucket
}

// Bucket mirrors stats.Bucket for the public result.
type Bucket struct {
	LoSeconds, HiSeconds float64
	Count                int64
}

// Fig4 reproduces Figure 4: the waiting-time distribution of the
// out-of-order policy near its maximal sustainable load, for 100 GB at
// 1.7 jobs/hour and 50 GB at 1.44 jobs/hour.
func Fig4(q Quality, seed int64) []Distribution {
	configs := []struct {
		label string
		cache int64
		load  float64
	}{
		{"Out of order - cache 100 GB - 1.7 jobs/hour", 100, 1.7},
		{"Out of order - cache 50 GB - 1.44 jobs/hour", 50, 1.44},
	}
	base := baseScenario(q, seed)
	base.NewPolicy = func() sched.Policy { return sched.NewOutOfOrder() }
	base.MeasureJobs = 4 * q.measure() // distributions need more samples
	var variants []lab.Variant
	for _, cfg := range configs {
		cfg := cfg
		variants = append(variants, lab.Variant{
			Label: cfg.label,
			Mutate: func(s *lab.Scenario) {
				s.Params.CacheBytes = cfg.cache * model.GB
				s.Load = cfg.load
			},
		})
	}
	// This grid needs the collectors: the figure is the histogram itself.
	opts := execOpts
	opts.KeepCollectors = true
	rs, _ := lab.Grid{Base: base, Variants: variants}.Execute(opts)
	out := make([]Distribution, len(configs))
	for i, cfg := range configs {
		res := rs.Result(i, 0, 0)
		d := Distribution{Label: cfg.label, Result: res}
		if res.Collector != nil {
			h := res.Collector.WaitingHistogram()
			d.Histogram = h.String()
			for _, b := range h.Buckets() {
				d.Buckets = append(d.Buckets, Bucket{b.Lo, b.Hi, b.Count})
			}
		}
		out[i] = d
	}
	return out
}

// ReplicationRow is one load point of the §4.2 comparison.
type ReplicationRow struct {
	Load             float64
	Plain, Replicate lab.Result
	// ReplicatedShare is the fraction of processed events that were
	// replicated (paper: data replication used in <1‰ of job arrivals).
	ReplicatedShare float64
}

// Replication reproduces the §4.2 experiment: out-of-order with and
// without data replication have near-identical performance, and
// replication triggers extremely rarely.
func Replication(q Quality, seed int64) []ReplicationRow {
	curves := runFigure("rep", q, seed)
	plain, replicate := curves[0].Results, curves[1].Results
	rows := make([]ReplicationRow, len(plain))
	for i, repl := range replicate {
		row := ReplicationRow{Load: plain[i].Load, Plain: plain[i], Replicate: repl}
		total := repl.Cluster.EventsFromCache + repl.Cluster.EventsFromRemote + repl.Cluster.EventsFromTape
		if total > 0 {
			row.ReplicatedShare = float64(repl.Cluster.EventsReplicated) / float64(total)
		}
		rows[i] = row
	}
	return rows
}

// MaxLoadResult is the §5.2 headline configuration outcome.
type MaxLoadResult struct {
	Load      float64
	Result    lab.Result
	TheoryMax float64
	FarmMax   float64
}

// MaxLoad reproduces the §5.2 claim: with 200 GB caches, a 1-week delay
// and stripe 200, the cluster sustains ≈3 jobs/hour (87% of the 3.46
// theoretical maximum and ≈2.7× the farm's 1.1) with speedup above 10.
func MaxLoad(q Quality, seed int64) []MaxLoadResult {
	p := model.PaperCalibrated()
	results := runFigure("max", q, seed)[0].Results
	out := make([]MaxLoadResult, len(results))
	for i, r := range results {
		out[i] = MaxLoadResult{
			Load: r.Load, Result: r,
			TheoryMax: p.MaxTheoreticalLoad(), FarmMax: p.FarmMaxLoad(),
		}
	}
	return out
}
