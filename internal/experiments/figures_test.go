package experiments

import (
	"path"
	"slices"
	"strings"
	"testing"

	"physched/internal/model"
)

// TestFigureFiles checks every element of every embedded figure file: it
// parses with spec.ParseGrid's strictness, validates, compiles, carries
// seed 1 so it runs as-is as a grid file, and every delayed or adaptive
// cell keeps the window its scheduling period needs. A period near the
// 3.46 jobs/hour theoretical maximum accumulates 3.5·delay_h jobs, so the
// overload threshold must admit three periods' backlog on top of 25 jobs
// per node, and the measurement window must cover four periods so batch
// sawtooths average out. Adaptive counts as a 1-week delay, its longest.
// The §5.2 maximal load at Quick measures three one-week periods only,
// which keeps that grid small.
func TestFigureFiles(t *testing.T) {
	recipes := map[string]bool{}
	for _, id := range AllFigureIDs() {
		recipes[id] = true
	}
	ids := map[Quality][]string{}
	for q, dir := range qualityDirs {
		entries, err := figureFiles.ReadDir(path.Join("figures", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			id := strings.TrimSuffix(e.Name(), ".json")
			file := dir + "/" + e.Name()
			ids[q] = append(ids[q], id)
			if !recipes[id] {
				t.Errorf("%s names no recipe", file)
			}
			grids, err := figureGrids(id, q)
			if err != nil {
				t.Error(err)
				continue
			}
			if len(grids) == 0 {
				t.Errorf("%s holds no grid", file)
			}
			for i, g := range grids {
				if g.Base.Seed != 1 {
					t.Errorf("%s[%d]: base seed %d, want 1", file, i, g.Base.Seed)
				}
				lg, err := g.Compile() // validates first
				if err != nil {
					t.Errorf("%s[%d]: %v", file, i, err)
					continue
				}
				for _, c := range lg.Cells() {
					if c.LoadIdx > 0 {
						continue // the window does not depend on the load
					}
					s := g.CellSpec(c)
					var delayHours float64
					switch s.Policy.Name {
					case "delayed":
						delayHours = s.Policy.DelayHours
					case "adaptive":
						delayHours = model.Week / model.Hour
					default:
						continue
					}
					perPeriod := 3.5 * delayHours
					params, err := s.Params.Model()
					if err != nil {
						t.Fatal(err)
					}
					minBacklog := int64(3*perPeriod) + int64(25*params.Nodes)
					periods := 4.0
					if file == "quick/max.json" {
						periods = 3
					}
					if s.OverloadBacklog < minBacklog || s.MeasureJobs < int(periods*perPeriod) {
						t.Errorf("%s[%d] %q: backlog %d, measure %d; a %.0f h period needs backlog ≥ %d and measure ≥ %d",
							file, i, c.Label, s.OverloadBacklog, s.MeasureJobs, delayHours, minBacklog, int(periods*perPeriod))
					}
				}
			}
		}
	}
	if !slices.Equal(ids[Quick], ids[Full]) {
		t.Errorf("quick and full files differ: %v vs %v", ids[Quick], ids[Full])
	}
}
