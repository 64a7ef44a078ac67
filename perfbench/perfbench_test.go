package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	// 100 observations: 50 in (0, 0.001], 50 in (0.001, 0.01].
	d := histDelta{count: 100, sum: 0.3, bounds: []float64{0.001, 0.01, math.Inf(1)}, cum: []float64{50, 100, 100}}
	if got := d.quantileMs(0.5); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := d.quantileMs(0.75); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("p75 = %v ms, want 5.5", got)
	}
	if got := d.meanMs(); got != 3 {
		t.Errorf("mean = %v ms, want 3", got)
	}
}

// TestSweepDigest pins round 0 at the default seed, the same check a
// sweep run makes.
func TestSweepDigest(t *testing.T) {
	enc, steps, _, err := serialRound0(context.Background(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(enc); got != sweepDigest {
		t.Errorf("round 0 digest %s, committed %s", got, sweepDigest)
	}
	if len(steps) != len(sweepPolicies)*2*len(sweepLoads) {
		t.Errorf("%d step counts for %d cells", len(steps), len(enc))
	}
}

// TestReaperStopsWholeGroup starts a shell with a background grandchild
// and checks that stop takes down the whole process group. The shell
// ignores SIGTERM, so only the group-wide signal ends the grandchild,
// whose exit then lets the shell's wait return (and reap it).
func TestReaperStopsWholeGroup(t *testing.T) {
	r := &reaper{}
	c, err := r.start("/bin/sh", []string{"-c", "sleep 60 & trap '' TERM; echo started; wait"}, filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(c.logTail(1), "started") {
		if time.Now().After(deadline) {
			t.Fatal("child never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.stopAll(); err != nil {
		t.Fatal(err)
	}
	if alive, err := groupAlive(c.pid); err != nil || len(alive) > 0 {
		t.Errorf("process group %d after stop: alive %v, err %v", c.pid, alive, err)
	}
	if err := c.stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
}

// TestWaitHealthyReportsEarlyExit checks that a child dying during
// start-up fails fast with its log tail.
func TestWaitHealthyReportsEarlyExit(t *testing.T) {
	r := &reaper{}
	defer r.stopAll()
	c, err := r.start("/bin/sh", []string{"-c", "echo cannot bind; exit 3"}, filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	never := func(context.Context) error { return os.ErrNotExist }
	err = c.waitHealthy(context.Background(), never, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "cannot bind") {
		t.Fatalf("waitHealthy = %v, want an early-exit error with the log tail", err)
	}
}
