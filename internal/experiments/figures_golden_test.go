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

// TestFiguresQuickGolden renders every experiment at Quick quality and
// seed 1 — text with plots, and CSV where the recipe has one — and pins
// the whole output to testdata/figures_quick.golden, so no change to a
// recipe, the simulator or the renderers can move a published number
// silently. Run `go test ./internal/experiments -run TestFiguresQuickGolden
// -update` after a deliberate change.
func TestFiguresQuickGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range AllFigureIDs() {
		out, err := Render(id, Quick, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s\n", id, out.Text)
		if out.CSV != "" {
			fmt.Fprintf(&b, "--- %s.csv\n%s", id, out.CSV)
		}
	}
	checkTextGolden(t, "figures_quick.golden", b.String())
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
