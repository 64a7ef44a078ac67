package lab

import (
	"fmt"
	"math"
	"testing"

	"physched/internal/model"
	"physched/internal/queueing"
	"physched/internal/sched"
	"physched/internal/stats"
)

// smallParams shrinks the workload so integration tests stay fast while
// keeping the paper's structure (cache smaller than dataspace, hot
// regions, Erlang job sizes).
func smallParams() model.Params {
	p := model.PaperCalibrated()
	p.Nodes = 4
	p.MeanJobEvents = 2_000
	p.DataspaceBytes = 200 * model.GB // ≈ 333 k events
	p.CacheBytes = 10 * model.GB      // ≈ 16.7 k events per node
	return p
}

// policyScenario builds a quick scenario for the given policy constructor.
func policyScenario(newPolicy func() sched.Policy, load float64) Scenario {
	return Scenario{
		Params:      smallParams(),
		NewPolicy:   newPolicy,
		Load:        load,
		Seed:        7,
		WarmupJobs:  60,
		MeasureJobs: 250,
	}
}

func allPolicies() []struct {
	name string
	mk   func() sched.Policy
} {
	return []struct {
		name string
		mk   func() sched.Policy
	}{
		{"farm", func() sched.Policy { return sched.NewFarm() }},
		{"splitting", func() sched.Policy { return sched.NewSplitting() }},
		{"cacheoriented", func() sched.Policy { return sched.NewCacheOriented() }},
		{"outoforder", func() sched.Policy { return sched.NewOutOfOrder() }},
		{"replication", func() sched.Policy { return sched.NewReplication() }},
		{"delayed", func() sched.Policy { return sched.NewDelayed(6*model.Hour, 500) }},
		{"delayed-zero", func() sched.Policy { return sched.NewDelayed(0, 500) }},
		{"adaptive", func() sched.Policy { return sched.NewAdaptive(500) }},
	}
}

// TestAllPoliciesCompleteAtLowLoad is the core integration test: every
// policy must process every measured job exactly once, without panics,
// with sane metrics, at a load every policy sustains.
func TestAllPoliciesCompleteAtLowLoad(t *testing.T) {
	// Farm max load for small params: 4 nodes / (2000 × u) per job.
	p := smallParams()
	farmMax := p.FarmMaxLoad()
	load := 0.5 * farmMax
	for _, tc := range allPolicies() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := policyScenario(tc.mk, load)
			res := Run(s)
			if res.Overloaded {
				t.Fatalf("%s overloaded at half the farm max load", tc.name)
			}
			if res.MeasuredJobs != 250 {
				t.Fatalf("measured %d jobs, want 250", res.MeasuredJobs)
			}
			if res.AvgSpeedup <= 0 {
				t.Errorf("AvgSpeedup = %v", res.AvgSpeedup)
			}
			maxSpeedup := p.MaxSpeedup() * 1.05
			if res.AvgSpeedup > maxSpeedup {
				t.Errorf("AvgSpeedup %v exceeds theoretical bound %v", res.AvgSpeedup, maxSpeedup)
			}
			if res.AvgWaiting < 0 {
				t.Errorf("negative AvgWaiting %v", res.AvgWaiting)
			}
		})
	}
}

// TestCachePoliciesBeatFarm verifies the paper's headline ordering at a
// moderate load: cache-aware policies deliver higher average speedups than
// the processing farm.
func TestCachePoliciesBeatFarm(t *testing.T) {
	p := smallParams()
	load := 0.6 * p.FarmMaxLoad()
	farm := Run(policyScenario(func() sched.Policy { return sched.NewFarm() }, load))
	split := Run(policyScenario(func() sched.Policy { return sched.NewSplitting() }, load))
	cache := Run(policyScenario(func() sched.Policy { return sched.NewCacheOriented() }, load))
	ooo := Run(policyScenario(func() sched.Policy { return sched.NewOutOfOrder() }, load))
	if farm.Overloaded || split.Overloaded || cache.Overloaded || ooo.Overloaded {
		t.Fatal("unexpected overload at 60% of farm max load")
	}
	if split.AvgSpeedup <= farm.AvgSpeedup {
		t.Errorf("splitting (%.2f) should beat farm (%.2f)", split.AvgSpeedup, farm.AvgSpeedup)
	}
	if cache.AvgSpeedup <= split.AvgSpeedup {
		t.Errorf("cache-oriented (%.2f) should beat splitting (%.2f)", cache.AvgSpeedup, split.AvgSpeedup)
	}
	if ooo.AvgSpeedup <= split.AvgSpeedup {
		t.Errorf("out-of-order (%.2f) should beat splitting (%.2f)", ooo.AvgSpeedup, split.AvgSpeedup)
	}
}

// TestFarmMatchesErlangC is the simulator's exact-answer oracle. With
// exponential job sizes (ErlangShape = 1) the processing farm is an M/M/m
// queue, whose mean wait Erlang C gives in closed form:
// Wq = C(a, m)·E[S] / (m(1 − ρ)). Each point runs a fixed set of seeds and
// compares the mean of the per-seed average waits with the model. The
// level is 99% familywise over the four points, so each point must sit
// within z = 3.02 standard errors (Bonferroni: 0.01/4 two-sided).
//
// The overload verdict is a heuristic about trends, not part of the
// model, so it is switched off: the backlog bound and the sim-time cap are
// lifted, and the collector's own average is read even where the
// divergence test would flag a long M/M/1 excursion.
func TestFarmMatchesErlangC(t *testing.T) {
	const (
		seeds   = 60
		warmup  = 200
		measure = 8_000
		z       = 3.02
	)
	for _, tc := range []struct {
		nodes int
		rho   float64
	}{{1, 0.45}, {1, 0.75}, {10, 0.45}, {10, 0.75}} {
		tc := tc
		t.Run(fmt.Sprintf("m=%d/rho=%.2f", tc.nodes, tc.rho), func(t *testing.T) {
			t.Parallel()
			p := model.PaperCalibrated()
			p.Nodes = tc.nodes
			p.ErlangShape = 1
			load := tc.rho * p.FarmMaxLoad()
			meanService := float64(p.MeanJobEvents) * p.EventTimeTape()
			m := float64(tc.nodes)
			want := queueing.ErlangC(load/model.Hour*meanService, tc.nodes) * meanService / (m * (1 - tc.rho))

			var waits stats.Summary
			for _, seed := range Seeds(1, seeds) {
				res := Run(Scenario{
					Params:          p,
					NewPolicy:       func() sched.Policy { return sched.NewFarm() },
					Load:            load,
					Seed:            seed,
					WarmupJobs:      warmup,
					MeasureJobs:     measure,
					OverloadBacklog: math.MaxInt64,
					MaxSimTime:      math.Inf(1),
				})
				if res.MeasuredJobs != measure {
					t.Fatalf("seed %d measured %d jobs, want %d", seed, res.MeasuredJobs, measure)
				}
				waits.Add(res.Collector.AvgWaiting())
			}
			se := waits.Std() / math.Sqrt(float64(waits.N()))
			score := (waits.Mean() - want) / se
			t.Logf("mean wait %.1f s ± %.1f s (SE) over %d seeds, Erlang C %.1f s, z = %+.2f",
				waits.Mean(), se, seeds, want, score)
			if math.Abs(score) > z {
				t.Errorf("farm mean wait %.1f s is %.2f standard errors from Erlang C's %.1f s (bound %.2f)",
					waits.Mean(), score, want, z)
			}
		})
	}
}

// TestFarmOverloadsBeyondMaxLoad: beyond the theoretical farm bound the
// backlog must grow without limit and the run must report overload.
func TestFarmOverloadsBeyondMaxLoad(t *testing.T) {
	p := smallParams()
	s := policyScenario(func() sched.Policy { return sched.NewFarm() }, 1.3*p.FarmMaxLoad())
	res := Run(s)
	if !res.Overloaded {
		t.Errorf("farm at 130%% of max load did not overload (speedup %.2f, waiting %.0f)",
			res.AvgSpeedup, res.AvgWaiting)
	}
}

// TestOutOfOrderSustainsMoreThanCacheOriented reproduces the §7 claim that
// out-of-order roughly doubles the sustainable load of cache-oriented
// FIFO splitting.
func TestOutOfOrderSustainsMoreThanCacheOriented(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	p := smallParams()
	loads := []float64{1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.4, 3.8}
	for i := range loads {
		loads[i] *= p.FarmMaxLoad()
	}
	co := Scenario{Params: p, NewPolicy: func() sched.Policy { return sched.NewCacheOriented() },
		Seed: 11, WarmupJobs: 80, MeasureJobs: 300}
	oo := Scenario{Params: p, NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() },
		Seed: 11, WarmupJobs: 80, MeasureJobs: 300}
	coMax := SustainableLoad(co, loads, Options{})
	ooMax := SustainableLoad(oo, loads, Options{})
	if ooMax <= coMax {
		t.Errorf("out-of-order sustains %.2f j/h, cache-oriented %.2f j/h; want strictly more", ooMax, coMax)
	}
}

func TestDeterministicResults(t *testing.T) {
	s := policyScenario(func() sched.Policy { return sched.NewOutOfOrder() }, 0.4*smallParams().FarmMaxLoad())
	a := Run(s)
	b := Run(s)
	if a.AvgSpeedup != b.AvgSpeedup || a.AvgWaiting != b.AvgWaiting {
		t.Errorf("same seed gave different results: %+v vs %+v", a, b)
	}
}

func TestSweepOrdersResults(t *testing.T) {
	p := smallParams()
	loads := []float64{0.2 * p.FarmMaxLoad(), 0.4 * p.FarmMaxLoad()}
	s := policyScenario(func() sched.Policy { return sched.NewFarm() }, 0)
	s.MeasureJobs = 100
	s.WarmupJobs = 20
	rs, err := (Grid{Base: s, Loads: loads}).Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := rs.Results
	if len(results) != 2 || results[0].Load != loads[0] || results[1].Load != loads[1] {
		t.Errorf("sweep results out of order: %+v", results)
	}
}
