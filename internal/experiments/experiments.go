// Package experiments defines one reproduction recipe per table and figure
// of the paper's evaluation (Figures 2-7, the §4.2 replication comparison,
// the §5.2 maximal-load experiment and the §3.1 M/Er/m reference), and the
// rendering of their results as text tables, ASCII plots and CSV.
//
// Every recipe exists in two sizes: Quick (benchmark/CI scale — fewer
// measured jobs and a sparser load grid; shapes hold, error bars are
// wider) and Full (the scale used for EXPERIMENTS.md).
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
	"fmt"

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

// sweep runs one variant over a load axis.
func sweep(base lab.Scenario, loads []float64) []lab.Result {
	return grid(base, loads, nil).Results
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
	ID     string
	Title  string
	Note   string
	Loads  []float64 // jobs per hour
	Curves []lab.Curve
	// DelayIncluded records whether waiting times include scheduling delay.
	DelayIncluded bool
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

func withCache(gb int64) func(*lab.Scenario) {
	return func(s *lab.Scenario) { s.Params.CacheBytes = gb * model.GB }
}

// delayedBacklog adapts a scenario to delayed scheduling with the given
// period: the overload threshold accommodates the backlog a period
// legitimately accumulates, and the measurement window is stretched to
// cover at least four periods so batch sawtooths average out.
func delayedBacklog(delay float64) func(*lab.Scenario) {
	return func(s *lab.Scenario) {
		// Worst case near the theoretical maximum of 3.46 jobs/hour.
		jobsPerPeriod := 3.5 * delay / model.Hour
		s.OverloadBacklog = int64(3*jobsPerPeriod) + int64(25*s.Params.Nodes)
		if minJobs := int(4 * jobsPerPeriod); s.MeasureJobs < minJobs {
			s.MeasureJobs = minJobs
		}
	}
}

func mutate(ms ...func(*lab.Scenario)) func(*lab.Scenario) {
	return func(s *lab.Scenario) {
		for _, m := range ms {
			m(s)
		}
	}
}

// Fig2 reproduces Figure 2: average speedup and waiting time versus load
// for the processing farm, job splitting and cache-oriented job splitting
// with 50/100/200 GB node caches, on 10 nodes.
func Fig2(q Quality, seed int64) Figure {
	loads := loadGrid(q, 0.7, 1.4)
	curves := sweepCurves(baseScenario(q, seed), loads, []lab.Variant{
		{Label: "Processing farm", NewPolicy: func() sched.Policy { return sched.NewFarm() }},
		{Label: "Job splitting", NewPolicy: func() sched.Policy { return sched.NewSplitting() }},
		{Label: "Cache oriented - 50 GB", NewPolicy: func() sched.Policy { return sched.NewCacheOriented() }, Mutate: withCache(50)},
		{Label: "Cache oriented - 100 GB", NewPolicy: func() sched.Policy { return sched.NewCacheOriented() }, Mutate: withCache(100)},
		{Label: "Cache oriented - 200 GB", NewPolicy: func() sched.Policy { return sched.NewCacheOriented() }, Mutate: withCache(200)},
	})
	return Figure{
		ID:    "fig2",
		Title: "Figure 2: FCFS policies — speedup and waiting time vs load",
		Note:  "Paper: farm ≈ flat speedup 1, overload ≈ 1.1-1.2 j/h; cache size decisive; 200 GB reaches the ≈3× caching gain.",
		Loads: loads, Curves: curves,
	}
}

// Fig3 reproduces Figure 3: cache-oriented splitting versus out-of-order
// scheduling for 50/100/200 GB caches.
func Fig3(q Quality, seed int64) Figure {
	loads := loadGrid(q, 0.8, 2.6)
	curves := sweepCurves(baseScenario(q, seed), loads, []lab.Variant{
		{Label: "Cache oriented - 50 GB", NewPolicy: func() sched.Policy { return sched.NewCacheOriented() }, Mutate: withCache(50)},
		{Label: "Cache oriented - 100 GB", NewPolicy: func() sched.Policy { return sched.NewCacheOriented() }, Mutate: withCache(100)},
		{Label: "Cache oriented - 200 GB", NewPolicy: func() sched.Policy { return sched.NewCacheOriented() }, Mutate: withCache(200)},
		{Label: "Out of order - 50 GB", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }, Mutate: withCache(50)},
		{Label: "Out of order - 100 GB", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }, Mutate: withCache(100)},
		{Label: "Out of order - 200 GB", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }, Mutate: withCache(200)},
	})
	return Figure{
		ID:    "fig3",
		Title: "Figure 3: cache-oriented vs out-of-order scheduling",
		Note:  "Paper: out-of-order gives higher speedup, waiting an order of magnitude lower, and roughly double the sustainable load.",
		Loads: loads, Curves: curves,
	}
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

// Fig5 reproduces Figure 5: delayed scheduling with period delays of 11 h,
// 2 days and 1 week (cache 100 GB, stripe 5000) against out-of-order.
func Fig5(q Quality, seed int64) Figure {
	loads := loadGrid(q, 1.0, 2.8)
	curves := sweepCurves(baseScenario(q, seed), loads, []lab.Variant{
		{Label: "Delayed (delay 11h)", NewPolicy: func() sched.Policy { return sched.NewDelayed(sched.Delay11h, 5000) }, Mutate: delayedBacklog(sched.Delay11h)},
		{Label: "Delayed (delay 2 days)", NewPolicy: func() sched.Policy { return sched.NewDelayed(sched.Delay2Days, 5000) }, Mutate: delayedBacklog(sched.Delay2Days)},
		{Label: "Delayed (delay 1 week)", NewPolicy: func() sched.Policy { return sched.NewDelayed(sched.Delay1Week, 5000) }, Mutate: delayedBacklog(sched.Delay1Week)},
		{Label: "Out of order scheduling", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
	})
	return Figure{
		ID:    "fig5",
		Title: "Figure 5: delayed scheduling for different period delays (cache 100 GB, stripe 5000)",
		Note:  "Paper: delayed behaves poorly in speedup/waiting but sustains very high loads, the more so the larger the delay. Waiting shown delay-excluded.",
		Loads: loads, Curves: curves,
	}
}

// Fig6 reproduces Figure 6: delayed scheduling with stripe sizes 200, 1K,
// 5K and 25K events (cache 100 GB, delay 2 days).
func Fig6(q Quality, seed int64) Figure {
	loads := loadGrid(q, 0.8, 2.6)
	mk := func(stripe int64) lab.Variant {
		return lab.Variant{
			Label:     fmt.Sprintf("Delayed, stripe %s", stripeLabel(stripe)),
			NewPolicy: func() sched.Policy { return sched.NewDelayed(sched.Delay2Days, stripe) },
			Mutate:    delayedBacklog(sched.Delay2Days),
		}
	}
	curves := sweepCurves(baseScenario(q, seed), loads, []lab.Variant{
		mk(200), mk(1000), mk(5000), mk(25000),
	})
	return Figure{
		ID:    "fig6",
		Title: "Figure 6: delayed scheduling for different stripe sizes (cache 100 GB, delay 2 days)",
		Note:  "Paper: smaller stripes give clearly better speedup (more parallelism) and hence higher sustainable loads; waiting time barely moves.",
		Loads: loads, Curves: curves,
	}
}

// Fig7 reproduces Figure 7: the adaptive-delay policy for stripe sizes 200
// and 5000 versus out-of-order (cache 100 GB); waiting times include the
// scheduling delay.
func Fig7(q Quality, seed int64) Figure {
	loads := loadGrid(q, 0.5, 2.8)
	adaptive := func(stripe int64) lab.Variant {
		return lab.Variant{
			Label:     fmt.Sprintf("Adaptive delay (stripe %s)", stripeLabel(stripe)),
			NewPolicy: func() sched.Policy { return sched.NewAdaptive(stripe) },
			Mutate: mutate(delayedBacklog(sched.Delay1Week), func(s *lab.Scenario) {
				s.DelayIncluded = true
			}),
		}
	}
	curves := sweepCurves(baseScenario(q, seed), loads, []lab.Variant{
		adaptive(200),
		adaptive(5000),
		{Label: "Out of order scheduling", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
	})
	return Figure{
		ID:    "fig7",
		Title: "Figure 7: adaptive delay vs out-of-order (cache 100 GB), waiting delay-included",
		Note:  "Paper: at low loads adaptive ≈ out-of-order (delay is zero); at high loads it sustains loads out-of-order cannot, at the price of delay-included waiting.",
		Loads: loads, Curves: curves,
		DelayIncluded: true,
	}
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
	loads := loadGrid(q, 0.8, 2.0)
	rs := grid(baseScenario(q, seed), loads, []lab.Variant{
		{Label: "plain", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
		{Label: "replicate", NewPolicy: func() sched.Policy { return sched.NewReplication() }},
	})
	rows := make([]ReplicationRow, len(loads))
	for i := range loads {
		repl := rs.Result(1, i, 0)
		row := ReplicationRow{Load: loads[i], Plain: rs.Result(0, i, 0), Replicate: repl}
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
	loads := []float64{2.6, 2.8, 3.0, 3.2}
	if q == Quick {
		loads = []float64{2.8, 3.0}
	}
	s := baseScenario(q, seed)
	s.Params.CacheBytes = 200 * model.GB
	s.NewPolicy = func() sched.Policy { return sched.NewDelayed(sched.Delay1Week, 200) }
	delayedBacklog(sched.Delay1Week)(&s)
	if q == Quick {
		// Four one-week periods of jobs are unavoidable here; keep the
		// grid small instead.
		s.MeasureJobs = int(3 * 3.5 * sched.Delay1Week / model.Hour)
	}
	out := make([]MaxLoadResult, len(loads))
	for i, r := range sweep(s, loads) {
		out[i] = MaxLoadResult{
			Load: loads[i], Result: r,
			TheoryMax: p.MaxTheoreticalLoad(), FarmMax: p.FarmMaxLoad(),
		}
	}
	return out
}

func stripeLabel(stripe int64) string {
	if stripe >= 1000 && stripe%1000 == 0 {
		return fmt.Sprintf("%dK events", stripe/1000)
	}
	return fmt.Sprintf("%d events", stripe)
}
