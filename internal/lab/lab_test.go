package lab

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"physched/internal/model"
	"physched/internal/sched"
)

// smallScenario is a fast out-of-order scenario for orchestration tests.
func smallScenario(seed int64) Scenario {
	p := model.PaperCalibrated()
	p.Nodes = 4
	p.MeanJobEvents = 2_000
	p.DataspaceBytes = 200 * model.GB
	p.CacheBytes = 10 * model.GB
	return Scenario{
		Params:      p,
		NewPolicy:   func() sched.Policy { return sched.NewOutOfOrder() },
		Load:        0.5 * p.FarmMaxLoad(),
		Seed:        seed,
		WarmupJobs:  30,
		MeasureJobs: 120,
	}
}

// marshal canonicalises a result set for byte-for-byte comparison.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunDeterministic: the same Scenario and seed twice must produce an
// identical Result.
func TestRunDeterministic(t *testing.T) {
	a, b := Run(smallScenario(7)), Run(smallScenario(7))
	if string(marshal(t, a)) != string(marshal(t, b)) {
		t.Fatalf("same scenario+seed differed:\n%s\n%s", marshal(t, a), marshal(t, b))
	}
}

func testGrid(seed int64) Grid {
	base := smallScenario(seed)
	return Grid{
		Base: base,
		Variants: []Variant{
			{Label: "ooo", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
			{Label: "farm", NewPolicy: func() sched.Policy { return sched.NewFarm() }},
		},
		Loads: []float64{0.3 * base.Params.FarmMaxLoad(), 0.5 * base.Params.FarmMaxLoad()},
		Seeds: Seeds(seed, 2),
	}
}

// TestGridParallelEqualsSerial is the core lab guarantee: a grid executed
// serially and with many workers yields byte-identical results.
func TestGridParallelEqualsSerial(t *testing.T) {
	serial, err := testGrid(3).Execute(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := testGrid(3).Execute(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sb, pb := marshal(t, serial.Results), marshal(t, parallel.Results)
	if string(sb) != string(pb) {
		t.Fatalf("parallel grid differs from serial:\nserial:   %s\nparallel: %s", sb, pb)
	}
	if len(serial.Results) != 2*2*2 {
		t.Fatalf("got %d results, want 8", len(serial.Results))
	}
}

// TestGridShape checks enumeration order, labels and indexed access.
func TestGridShape(t *testing.T) {
	g := testGrid(3)
	rs, err := g.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Labels) != 2 || rs.Labels[0] != "ooo" || rs.Labels[1] != "farm" {
		t.Fatalf("labels = %v", rs.Labels)
	}
	for vi := range rs.Labels {
		for li, load := range rs.Loads {
			for si, seed := range rs.Seeds {
				r := rs.Result(vi, li, si)
				if r.Load != load {
					t.Fatalf("cell (%d,%d,%d): load %v, want %v", vi, li, si, r.Load, load)
				}
				if r.Scenario.Seed != seed {
					t.Fatalf("cell (%d,%d,%d): seed %v, want %v", vi, li, si, r.Scenario.Seed, seed)
				}
			}
		}
	}
	want := map[string]string{"ooo": "outoforder", "farm": "farm"}
	for vi, label := range rs.Labels {
		if got := rs.Result(vi, 0, 0).PolicyName; got != want[label] {
			t.Errorf("variant %q ran policy %q", label, got)
		}
	}
	curves := rs.Curves()
	if len(curves) != 2 || len(curves[0].Results) != len(rs.Loads) {
		t.Fatalf("curves shape wrong: %+v", curves)
	}
}

// TestGridDropsCollectors: grid results must not pin the full per-job
// collector unless asked to.
func TestGridDropsCollectors(t *testing.T) {
	rs, _ := Grid{Base: smallScenario(3)}.Execute(Options{})
	if rs.Results[0].Collector != nil {
		t.Error("grid kept a Collector without KeepCollectors")
	}
	rs, _ = Grid{Base: smallScenario(3)}.Execute(Options{KeepCollectors: true})
	if rs.Results[0].Collector == nil {
		t.Error("KeepCollectors did not keep the Collector")
	}
	if Run(smallScenario(3)).Collector == nil {
		t.Error("single Run must keep its Collector")
	}
}

// TestPoolBoundsConcurrency: no more than Workers tasks run at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	pool := NewPool(workers)
	defer pool.Close()
	var cur, peak int32
	err := pool.Run(context.Background(), 64, func(int) {
		n := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", peak, workers)
	}
}

// TestPoolCancellation: a cancelled context stops dispatching and
// surfaces the error; started tasks complete.
func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := NewPool(2)
	defer pool.Close()
	var done int32
	err := pool.Run(ctx, 100, func(i int) {
		if atomic.AddInt32(&done, 1) == 4 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&done); n >= 100 {
		t.Errorf("cancellation did not stop dispatch (ran %d)", n)
	}
}

// TestProgressSerialised: every run reports exactly once, Done is
// strictly increasing, and the callback needs no locking.
func TestProgressSerialised(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	g := testGrid(3)
	_, err := g.Execute(Options{Workers: 4, Progress: func(u ProgressUpdate) {
		mu.Lock() // mu only guards the test's slice append
		defer mu.Unlock()
		seen = append(seen, u.Done)
		if u.Total != 8 {
			t.Errorf("Total = %d, want 8", u.Total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("progress fired %d times, want 8", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("Done sequence %v not strictly increasing", seen)
		}
	}
}

// TestSeedsDisciplined: derived seeds are deterministic, distinct and
// independent of how many are asked for.
func TestSeedsDisciplined(t *testing.T) {
	a, b := Seeds(1, 8), Seeds(1, 8)
	distinct := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds is not deterministic")
		}
		distinct[a[i]] = true
	}
	if len(distinct) != 8 {
		t.Fatalf("seeds collide: %v", a)
	}
	if prefix := Seeds(1, 3); prefix[0] != a[0] || prefix[2] != a[2] {
		t.Error("Seeds(base, n) must be a prefix of Seeds(base, m>n)")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed must be order-sensitive")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Error("different bases must derive different seeds")
	}
}

// TestReplicateAggregates: a grid's seed axis replicates the scenario,
// and RunSet.Aggregate summarises the replicas with confidence intervals.
func TestReplicateAggregates(t *testing.T) {
	s := smallScenario(1)
	rs, err := Grid{Base: s, Seeds: Seeds(1, 4)}.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := rs.Aggregate(0, 0)
	if agg.Replicas != 4 || agg.Overloaded != 0 {
		t.Fatalf("replicas=%d overloaded=%d", agg.Replicas, agg.Overloaded)
	}
	if agg.SpeedupMean <= 1 {
		t.Errorf("SpeedupMean = %v", agg.SpeedupMean)
	}
	if agg.SpeedupStd == 0 {
		t.Error("seeds produced identical results; seeding is broken")
	}
	if agg.SpeedupCI95 <= 0 || agg.SpeedupCI95 >= agg.SpeedupMean {
		t.Errorf("implausible CI95 %v for mean %v", agg.SpeedupCI95, agg.SpeedupMean)
	}
	mean := agg.MeanResult()
	if mean.Overloaded || mean.AvgSpeedup != agg.SpeedupMean {
		t.Errorf("MeanResult inconsistent with aggregate: %+v", mean)
	}
}

// TestReplicateCountsOverloads mirrors the old runner behaviour: an
// overloaded majority yields an overloaded mean point.
func TestReplicateCountsOverloads(t *testing.T) {
	s := smallScenario(1)
	s.NewPolicy = func() sched.Policy { return sched.NewFarm() }
	s.Load = 2 * s.Params.FarmMaxLoad()
	rs, err := Grid{Base: s, Seeds: Seeds(9, 3)}.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := rs.Aggregate(0, 0)
	if agg.Overloaded != 3 {
		t.Fatalf("Overloaded = %d, want 3 (farm at double its max)", agg.Overloaded)
	}
	if agg.SpeedupMean != 0 {
		t.Errorf("mean over zero steady replicas should be 0, got %v", agg.SpeedupMean)
	}
	if !agg.MeanResult().Overloaded {
		t.Error("MeanResult of fully overloaded replicas must be overloaded")
	}
}
