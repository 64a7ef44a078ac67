package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFiguresQuickGolden renders every experiment at seed 1 — text with
// plots, and CSV where the recipe has one — and pins the whole output at
// Quick quality to testdata/figures_quick.golden and at Full quality to
// testdata/figures_full.golden, so no change to a recipe, its scenario
// data, the simulator or the renderers can move a published number
// silently. The Full half is skipped under -short. Run `go test
// ./internal/experiments -run TestFiguresQuickGolden -update` after a
// deliberate change.
func TestFiguresQuickGolden(t *testing.T) {
	for _, level := range []struct {
		name string
		q    Quality
	}{{"quick", Quick}, {"full", Full}} {
		if level.q == Full && testing.Short() {
			t.Log("skipping the Full-quality golden under -short")
			continue
		}
		var b strings.Builder
		for _, id := range AllFigureIDs() {
			out, err := Render(id, level.q, 1, true)
			if err != nil {
				t.Fatalf("%s %s: %v", level.name, id, err)
			}
			fmt.Fprintf(&b, "=== %s\n%s\n", id, out.Text)
			if out.CSV != "" {
				fmt.Fprintf(&b, "--- %s.csv\n%s", id, out.CSV)
			}
		}
		checkTextGolden(t, "figures_"+level.name+".golden", b.String())
	}
}

// checkTextGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkTextGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden file:\n--- got ---\n%s--- want ---\n%s(run with -update to regenerate)", name, got, want)
	}
}
