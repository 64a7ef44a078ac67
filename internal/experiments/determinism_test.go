package experiments

import (
	"encoding/json"
	"testing"

	"physched/internal/lab"
)

// TestFig2SerialEqualsParallel reproduces Figure 2 at Quick quality twice —
// once on a single worker, once on eight — and requires byte-identical
// figures: the lab grid's core determinism guarantee, checked end-to-end
// through a real experiment recipe.
func TestFig2SerialEqualsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Quick-scale Figure 2 sweep twice")
	}
	prev := Configure(lab.Options{Workers: 1})
	defer Configure(prev)
	serial := Fig2(Quick, 1)
	Configure(lab.Options{Workers: 8})
	parallel := Fig2(Quick, 1)

	sb, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sb) != string(pb) {
		t.Fatalf("Fig2 serial and parallel runs differ:\nserial:   %s\nparallel: %s", sb, pb)
	}
}

// TestDayNightTiny exercises the day/night study's plumbing: the grid
// must produce every variant, every variant must complete its lowest-load
// point in steady state, and the inhomogeneous variants must genuinely
// differ from their steady baselines (the NewWorkload hook took effect).
// Quantitative burstiness effects are left to Full-scale runs — Quick
// windows are too short to rank sustainable loads reliably.
func TestDayNightTiny(t *testing.T) {
	rows := dataRows("daynight", Quick, 1)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	lowest := map[string]AblationRow{}
	waiting := map[string]float64{}
	for _, r := range rows {
		if cur, ok := lowest[r.Variant]; !ok || r.Load < cur.Load {
			lowest[r.Variant] = r
		}
		if !r.Result.Overloaded {
			waiting[r.Variant] += r.Result.AvgWaiting
		}
	}
	if len(lowest) != 4 {
		t.Fatalf("expected 4 variants, got %d: %v", len(lowest), lowest)
	}
	for v, r := range lowest {
		if r.Result.Overloaded {
			t.Errorf("%s overloaded at its lowest load %.2f", v, r.Load)
		}
	}
	if waiting["farm, steady arrivals"] == waiting["farm, day/night swing 80%"] {
		t.Error("day/night workload produced identical waiting to steady arrivals; NewWorkload hook inert")
	}
}
