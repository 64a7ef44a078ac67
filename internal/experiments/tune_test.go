package experiments

import (
	"strings"
	"testing"
)

// TestTuneHalvingBeatsRandomAtEqualBudget is the autotuner acceptance
// test on the pinned tune scenario: both drivers spend exactly the study
// budget, and successive halving finds a strictly better configuration
// than random search because its one-replication first rung covers the
// whole space while random's fixed-replication sample cannot.
func TestTuneHalvingBeatsRandomAtEqualBudget(t *testing.T) {
	tr, err := Tune(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, h := tr.Random, tr.Halving
	if r.EvaluatedCells != r.Budget || h.EvaluatedCells != h.Budget {
		t.Errorf("budgets not fully spent: random %d/%d, halving %d/%d",
			r.EvaluatedCells, r.Budget, h.EvaluatedCells, h.Budget)
	}
	if r.Best == nil || h.Best == nil {
		t.Fatalf("missing winners: random %+v halving %+v", r.Best, h.Best)
	}
	if r.Best.Replicas != h.Best.Replicas {
		t.Errorf("winners judged at different depths: %d vs %d replicas", r.Best.Replicas, h.Best.Replicas)
	}
	if !(h.Best.Value > r.Best.Value) {
		t.Errorf("halving did not beat random at equal budget: %.4f (%s) vs %.4f (%s)",
			h.Best.Value, h.Best.Label, r.Best.Value, r.Best.Label)
	}
	if h.Candidates <= r.Candidates {
		t.Errorf("halving explored %d candidates, random %d", h.Candidates, r.Candidates)
	}

	// The halving leaderboard is golden-pinned: the winner, the ranking
	// and the rendered values must not drift silently.
	checkTextGolden(t, "tune_leaderboard.golden", h.Render())

	// The full rendering (both leaderboards + comparison plot) must
	// include every moving part.
	out := RenderTune(tr)
	for _, needle := range []string{"Successive halving", "Random search", "vs cells evaluated", "rung ×1"} {
		if !strings.Contains(out, needle) {
			t.Errorf("RenderTune output missing %q", needle)
		}
	}
}
