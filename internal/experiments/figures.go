package experiments

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"path"

	"physched/internal/lab"
	"physched/internal/spec"
)

// figureFiles holds the scenarios of the data recipes: one file per
// quality level and recipe id, each a JSON array of spec.Grid documents.
//
//go:embed figures
var figureFiles embed.FS

// qualityDirs names each quality level's directory under figures/.
var qualityDirs = map[Quality]string{Quick: "quick", Full: "full"}

// figureGrids decodes the grids of recipe id at quality q, each element
// with spec.ParseGrid's strictness (unknown fields rejected).
func figureGrids(id string, q Quality) ([]spec.Grid, error) {
	name := path.Join("figures", qualityDirs[q], id+".json")
	body, err := figureFiles.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(body, &elems); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	grids := make([]spec.Grid, len(elems))
	for i, elem := range elems {
		if grids[i], err = spec.ParseGrid(bytes.NewReader(elem)); err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", name, i, err)
		}
	}
	return grids, nil
}

// runFigure runs the grids of data recipe id at quality q on the
// configured options, every grid on the given seed, and returns their
// curves in file order. The files are embedded and TestFigureFiles
// compiles every one of them, so a decode or compile failure is a bug.
func runFigure(id string, q Quality, seed int64) []lab.Curve {
	grids, err := figureGrids(id, q)
	if err != nil {
		panic(err)
	}
	var curves []lab.Curve
	for _, g := range grids {
		g.Base.Seed = seed
		lg, err := g.Compile()
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", id, err))
		}
		// A cancelled grid leaves zero results; the caller checks the
		// context and discards the output.
		rs, _ := lg.Execute(execOpts)
		curves = append(curves, rs.Curves()...)
	}
	return curves
}

// figureTitles holds the title and note of each figure-shaped data recipe.
var figureTitles = map[string]struct{ title, note string }{
	"fig2": {"Figure 2: FCFS policies — speedup and waiting time vs load",
		"Paper: farm ≈ flat speedup 1, overload ≈ 1.1-1.2 j/h; cache size decisive; 200 GB reaches the ≈3× caching gain."},
	"fig3": {"Figure 3: cache-oriented vs out-of-order scheduling",
		"Paper: out-of-order gives higher speedup, waiting an order of magnitude lower, and roughly double the sustainable load."},
	"fig5": {"Figure 5: delayed scheduling for different period delays (cache 100 GB, stripe 5000)",
		"Paper: delayed behaves poorly in speedup/waiting but sustains very high loads, the more so the larger the delay. Waiting shown delay-excluded."},
	"fig6": {"Figure 6: delayed scheduling for different stripe sizes (cache 100 GB, delay 2 days)",
		"Paper: smaller stripes give clearly better speedup (more parallelism) and hence higher sustainable loads; waiting time barely moves."},
	"fig7": {"Figure 7: adaptive delay vs out-of-order (cache 100 GB), waiting delay-included",
		"Paper: at low loads adaptive ≈ out-of-order (delay is zero); at high loads it sustains loads out-of-order cannot, at the price of delay-included waiting."},
}

// dataFigure runs data recipe id as a titled figure.
func dataFigure(id string, q Quality, seed int64) Figure {
	t := figureTitles[id]
	return Figure{Title: t.title, Note: t.note, Curves: runFigure(id, q, seed)}
}

// dataRows runs data recipe id and flattens its curves into ablation rows.
func dataRows(id string, q Quality, seed int64) []AblationRow {
	return flatten(runFigure(id, q, seed))
}

// Fig2 reproduces Figure 2: average speedup and waiting time versus load
// for the processing farm, job splitting and cache-oriented job splitting
// with 50/100/200 GB node caches, on 10 nodes.
func Fig2(q Quality, seed int64) Figure { return dataFigure("fig2", q, seed) }

// Fig3 reproduces Figure 3: cache-oriented splitting versus out-of-order
// scheduling for 50/100/200 GB caches.
func Fig3(q Quality, seed int64) Figure { return dataFigure("fig3", q, seed) }

// Fig5 reproduces Figure 5: delayed scheduling with period delays of 11 h,
// 2 days and 1 week (cache 100 GB, stripe 5000) against out-of-order.
// Each delay has its own overload threshold and window, so each is its own
// grid.
func Fig5(q Quality, seed int64) Figure { return dataFigure("fig5", q, seed) }

// Fig6 reproduces Figure 6: delayed scheduling with stripe sizes 200, 1K,
// 5K and 25K events (cache 100 GB, delay 2 days).
func Fig6(q Quality, seed int64) Figure { return dataFigure("fig6", q, seed) }

// Fig7 reproduces Figure 7: the adaptive-delay policy for stripe sizes 200
// and 5000 versus out-of-order (cache 100 GB). The adaptive grid reports
// waiting times including the scheduling delay; out-of-order runs in a
// grid of its own with the default window.
func Fig7(q Quality, seed int64) Figure { return dataFigure("fig7", q, seed) }

// AblationHotspot varies the workload's hot-region weight. The paper's
// default sends 50% of job start points into 10% of the dataspace; without
// that skew caches cover a smaller fraction of the touched data.
func AblationHotspot(q Quality, seed int64) []AblationRow { return dataRows("ab-hotspot", q, seed) }

// FutureWorkPipelining evaluates the paper's §7 future-work item:
// overlapping data transfers with computation, so an uncached event costs
// max(CPU, transfer) instead of their sum.
func FutureWorkPipelining(q Quality, seed int64) []AblationRow { return dataRows("pipeline", q, seed) }

// BaselineComparison pits the paper's dynamic policies against static data
// partitioning and a cache-affine farm (caching, no splitting), splitting
// the cache-oriented gain into its caching and parallelism parts.
func BaselineComparison(q Quality, seed int64) []AblationRow { return dataRows("baselines", q, seed) }
