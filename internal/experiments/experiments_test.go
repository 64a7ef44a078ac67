package experiments

import (
	"strings"
	"testing"

	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/sched"
)

// tiny shrinks an experiment scenario for unit tests of the plumbing (the
// real figure-scale runs are exercised by the root benchmarks).
func tiny(s lab.Scenario) lab.Scenario {
	s.Params.Nodes = 3
	s.Params.MeanJobEvents = 1_000
	s.Params.DataspaceBytes = 60 * model.GB
	s.Params.CacheBytes = 6 * model.GB
	s.WarmupJobs = 20
	s.MeasureJobs = 80
	return s
}

func TestLoadGrid(t *testing.T) {
	g := loadGrid(Quick, 1, 2)
	if len(g) != 6 || g[0] != 1 || g[len(g)-1] != 2 {
		t.Errorf("quick grid = %v", g)
	}
	g = loadGrid(Full, 0.5, 1.0)
	if len(g) != 9 || g[0] != 0.5 || g[len(g)-1] != 1.0 {
		t.Errorf("full grid = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Errorf("grid not increasing: %v", g)
		}
	}
}

func TestQualityScales(t *testing.T) {
	if Quick.measure() >= Full.measure() {
		t.Error("Quick must measure fewer jobs than Full")
	}
	if Quick.warmup() <= 0 || Full.warmup() <= 0 {
		t.Error("warmup must be positive")
	}
}

func TestFigureTableAndCSV(t *testing.T) {
	// Build a minimal figure through the real sweep machinery.
	s := tiny(baseScenario(Quick, 1))
	loads := []float64{0.3 * s.Params.FarmMaxLoad(), 0.6 * s.Params.FarmMaxLoad()}
	curves := sweepCurves(s, loads, []lab.Variant{
		{Label: "farm", NewPolicy: func() sched.Policy { return sched.NewFarm() }},
		{Label: "ooo", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
	})
	f := Figure{Title: "test figure", Curves: curves}

	table := f.Table()
	for _, want := range []string{"test figure", "farm", "ooo", "steady"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+2*len(loads) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+2*len(loads))
	}
	if !strings.HasPrefix(lines[0], "curve,load_jobs_per_hour") {
		t.Errorf("CSV header wrong: %q", lines[0])
	}

	plots := f.Plots()
	if !strings.Contains(plots, "average speedup") || !strings.Contains(plots, "waiting") {
		t.Error("plots missing panels")
	}
}

func TestRenderHelpersDoNotPanic(t *testing.T) {
	// Empty inputs must render gracefully.
	if out := RenderReplication(nil); !strings.Contains(out, "replication") {
		t.Error("empty replication render broken")
	}
	if out := RenderMaxLoad(nil); !strings.Contains(out, "delayed") {
		t.Error("empty max-load render broken")
	}
	if out := RenderFarm(nil); !strings.Contains(out, "M/Er/m") {
		t.Error("empty farm render broken")
	}
	if out := RenderDistributions(nil); !strings.Contains(out, "Figure 4") {
		t.Error("empty distribution render broken")
	}
}

func TestAllFigureIDs(t *testing.T) {
	ids := AllFigureIDs()
	if len(ids) != 20 {
		t.Errorf("AllFigureIDs = %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
