package lab

import (
	"testing"

	"physched/internal/model"
	"physched/internal/sched"
)

// These tests pin the paper's qualitative findings at miniature scale, so
// a regression in any policy's logic that flips an ordering fails fast in
// CI rather than surfacing only in the full figure runs.

// TestStripeSizeOrdering encodes Figure 6: under delayed scheduling,
// smaller stripes yield strictly better average speedups at equal load.
func TestStripeSizeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	p := smallParams()
	load := 1.2 * p.FarmMaxLoad()
	speedup := func(stripe int64) float64 {
		s := Scenario{
			Params: p,
			NewPolicy: func() sched.Policy {
				return sched.NewDelayed(6*model.Hour, stripe)
			},
			Load: load, Seed: 17,
			WarmupJobs: 60, MeasureJobs: 300,
			OverloadBacklog: 500,
		}
		r := Run(s)
		if r.Overloaded {
			t.Fatalf("stripe %d overloaded at this load", stripe)
		}
		return r.AvgSpeedup
	}
	small, large := speedup(100), speedup(4_000)
	if small <= large {
		t.Errorf("stripe 100 speedup %.2f should beat stripe 4000 speedup %.2f", small, large)
	}
}

// TestCacheSizeOrdering encodes Figure 2's "the cache size appears to be
// decisive": larger caches yield higher speedups for the cache-oriented
// policy at equal load.
func TestCacheSizeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	p := smallParams()
	load := 0.7 * p.FarmMaxLoad()
	speedup := func(cacheGB int64) float64 {
		pp := p
		pp.CacheBytes = cacheGB * model.GB
		r := Run(Scenario{
			Params:    pp,
			NewPolicy: func() sched.Policy { return sched.NewCacheOriented() },
			Load:      load, Seed: 23,
			WarmupJobs: 60, MeasureJobs: 300,
		})
		if r.Overloaded {
			t.Fatalf("cache %d GB overloaded at 0.7×farm-max", cacheGB)
		}
		return r.AvgSpeedup
	}
	s5, s10, s20 := speedup(5), speedup(10), speedup(20)
	if !(s5 < s10 && s10 < s20) {
		t.Errorf("speedups not increasing with cache size: %.2f, %.2f, %.2f", s5, s10, s20)
	}
}

// TestAdaptiveSustainsMoreThanOutOfOrder encodes Figure 7's headline: the
// adaptive policy holds loads that overload out-of-order.
func TestAdaptiveSustainsMoreThanOutOfOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	// Paper-like cache coverage (50% of the dataspace across nodes) so
	// delayed scheduling has headroom above out-of-order.
	p := smallParams()
	p.CacheBytes = 25 * model.GB
	grid := make([]float64, 7)
	for i := range grid {
		grid[i] = (0.3 + 0.1*float64(i)) * p.MaxTheoreticalLoad()
	}
	oooMax := SustainableLoad(Scenario{
		Params:    p,
		NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() },
		Seed:      29, WarmupJobs: 60, MeasureJobs: 300,
	}, grid, Options{})
	if oooMax >= grid[len(grid)-1] {
		t.Fatalf("out-of-order sustained the whole grid (up to %.3f jobs/hour); the grid no longer reaches its overload point", oooMax)
	}
	// The first grid load out-of-order could not hold.
	var target float64
	for _, l := range grid {
		if l > oooMax {
			target = l
			break
		}
	}
	ada := Run(Scenario{
		Params:    p,
		NewPolicy: func() sched.Policy { return sched.NewAdaptive(100) },
		Load:      target, Seed: 29, WarmupJobs: 60,
		MeasureJobs:     int(4 * target * model.Week / model.Hour),
		OverloadBacklog: int64(4*target*model.Week/model.Hour) + 100,
	})
	if ada.Overloaded {
		t.Errorf("adaptive delay overloaded at %.2f j/h where the paper's design should push past out-of-order's %.2f", target, oooMax)
	}
}
