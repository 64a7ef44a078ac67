package lab

import (
	"context"
	"sync/atomic"
	"testing"

	"physched/internal/cluster"
	"physched/internal/model"
	"physched/internal/sched"
)

// BenchmarkRun measures one complete out-of-order simulation run (warm-up
// plus measurement window) on the small test cluster — the unit of work
// every sweep, grid and replication fans out over.
func BenchmarkRun(b *testing.B) {
	p := smallParams()
	s := policyScenario(func() sched.Policy { return sched.NewOutOfOrder() }, 0.5*p.FarmMaxLoad())
	benchRuns(b, s)
}

// benchRuns runs the cells once per op. One untimed round first fills the
// recycled run storage (see RunE), so every timed op is a steady-state op
// and allocs/op does not move with b.N.
func benchRuns(b *testing.B, cells ...Scenario) {
	for _, s := range cells {
		Run(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range cells {
			Run(s)
		}
	}
}

// BenchmarkPoolDispatch prices the pool's per-task dispatch loop with no
// hooks installed — the default path every deterministic run takes. One
// Run call fans out b.N empty tasks, so the per-op figure is pure
// dispatch; the benchsnap gate pins it at 0 allocs/op.
func BenchmarkPoolDispatch(b *testing.B) {
	b.ReportAllocs()
	pool := NewPool(1)
	defer pool.Close()
	b.ResetTimer()
	if err := pool.Run(context.Background(), b.N, func(int) {}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPoolDispatchHooked is BenchmarkPoolDispatch with timing hooks
// installed — the path a service's queue-wait/run-duration histograms
// ride. The benchsnap gate pins the hooked path at 0 allocs/op too: the
// observability tax on the simulation hot path is time-only, never
// garbage.
func BenchmarkPoolDispatchHooked(b *testing.B) {
	b.ReportAllocs()
	pool := NewPool(1)
	defer pool.Close()
	var clk atomic.Int64
	var waitNs, runNs atomic.Int64
	pool.SetHooks(&PoolHooks{
		Now:  func() int64 { return clk.Add(1) },
		Wait: func(ns int64) { waitNs.Add(ns) },
		Run:  func(ns int64) { runNs.Add(ns) },
	})
	b.ResetTimer()
	if err := pool.Run(context.Background(), b.N, func(int) {}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunFaults is BenchmarkRun under heavy node churn: it prices
// the fault path — failure/repair events, subjob kills, requeues and
// cache rebuilds — against the fault-free baseline snapshot.
func BenchmarkRunFaults(b *testing.B) {
	p := smallParams()
	s := policyScenario(func() sched.Policy { return sched.NewOutOfOrder() }, 0.5*p.FarmMaxLoad())
	s.Faults = cluster.FaultModel{MTBFHours: 24, RepairHours: 2, CacheLoss: true}
	benchRuns(b, s)
}

// BenchmarkSweepCell prices the cells of the perfbench sweep, the traffic
// where the event queue's cost shows: the calibrated paper cluster,
// warm-up 30 and measure 100 jobs, at loads 0.8, 1.6 and 2.4 jobs/h,
// each fault-free and under churn (MTBF 150 h with cache loss). One op
// runs a policy's six cells of the sweep's first round at seed 1, so
// ns/op is six times the policy's mean cell time. Every registered
// policy has a sub-benchmark; their names must not end in a digit, which
// benchsnap would read as a GOMAXPROCS suffix.
func BenchmarkSweepCell(b *testing.B) {
	churn := cluster.FaultModel{MTBFHours: 150, CacheLoss: true}.WithDefaults()
	for _, name := range sched.Names() {
		if c := name[len(name)-1]; c >= '0' && c <= '9' {
			b.Fatalf("policy %q: a sub-benchmark name must not end in a digit", name)
		}
		b.Run(name, func(b *testing.B) {
			var cells []Scenario
			for _, faults := range []cluster.FaultModel{{}, churn} {
				for _, load := range []float64{0.8, 1.6, 2.4} {
					cells = append(cells, Scenario{
						Params: model.PaperCalibrated(),
						NewPolicy: func() sched.Policy {
							p, err := sched.New(name, sched.Args{})
							if err != nil {
								b.Fatal(err)
							}
							return p
						},
						Load:        load,
						Seed:        DeriveSeed(1, 0),
						WarmupJobs:  30,
						MeasureJobs: 100,
						Faults:      faults,
					})
				}
			}
			benchRuns(b, cells...)
		})
	}
}
