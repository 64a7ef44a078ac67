package experiments

import (
	"fmt"
	"strings"
)

// Output is one rendered experiment: the text report and, for the
// figure-shaped recipes, its CSV rows (empty otherwise).
type Output struct {
	Text string
	CSV  string
}

// Render returns the figure as a text table, followed by its plots when
// plots is set, together with its CSV rows.
func (f Figure) Render(plots bool) Output {
	text := f.Table() + "\n"
	if plots {
		text += f.Plots() + "\n"
	}
	return Output{Text: text, CSV: f.CSV()}
}

// renderFunc runs one experiment and renders its result.
type renderFunc func(q Quality, seed int64, plots bool) (Output, error)

// recipes maps every experiment id to its recipe, in the order AllFigureIDs
// lists them: the paper's figures and tables first, then the ablation
// studies of DESIGN.md §4.
var recipes = []struct {
	id     string
	render renderFunc
}{
	{"fig2", figure(Fig2)},
	{"fig3", figure(Fig3)},
	{"fig4", report(Fig4, RenderDistributions)},
	{"fig5", figure(Fig5)},
	{"fig6", figure(Fig6)},
	{"fig7", figure(Fig7)},
	{"rep", report(Replication, RenderReplication)},
	{"max", report(MaxLoad, RenderMaxLoad)},
	{"farm", report(FarmVsMErM, RenderFarm)},
	{"ab-eviction", ablation("Ablation: LRU vs FIFO cache eviction (out-of-order policy)", AblationEviction)},
	{"ab-steal", ablation("Ablation: stolen subjobs read remotely vs re-read from tape", AblationStealSource)},
	{"ab-replication", ablation("Ablation: replication threshold (remote accesses before replicating)", AblationReplicationThreshold)},
	{"ab-hotspot", ablation("Ablation: workload hot-region weight", AblationHotspot)},
	{"nodes", report(NodeCountStudy, RenderNodeCount)},
	{"pipeline", ablation("Future work (§7): pipelining data transfers with computation", FutureWorkPipelining)},
	{"baselines", ablation("Baselines: static partitioning and affine farm vs the paper's dynamic policies", BaselineComparison)},
	{"hetero", ablation("Extension: heterogeneous node speeds (equal aggregate capacity)", HeterogeneityStudy)},
	// Arrivals on a 24-hour day/night cycle at equal mean load: how much
	// sustainable load each policy loses to burstiness.
	{"daynight", ablation("Extension: day/night load cycle (inhomogeneous Poisson arrivals, equal mean load)", func(q Quality, seed int64) []AblationRow {
		return dataRows("daynight", q, seed)
	})},
	// Out-of-order under node churn, MTBF × load: failures with disk loss
	// and four-hour repairs cost re-executed work and cache rebuilds.
	{"faults", report(func(q Quality, seed int64) []AblationRow { return dataRows("faults", q, seed) }, RenderFaults)},
	{"tune", func(q Quality, seed int64, _ bool) (Output, error) {
		tr, err := Tune(q, seed)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: RenderTune(tr)}, nil
	}},
}

// figure renders a figure recipe as table, optional plots and CSV.
func figure(run func(Quality, int64) Figure) renderFunc {
	return func(q Quality, seed int64, plots bool) (Output, error) {
		return run(q, seed).Render(plots), nil
	}
}

// report renders a recipe whose result has a text report only.
func report[T any](run func(Quality, int64) T, render func(T) string) renderFunc {
	return func(q Quality, seed int64, _ bool) (Output, error) {
		return Output{Text: render(run(q, seed))}, nil
	}
}

// ablation renders an ablation recipe under its title.
func ablation(title string, run func(Quality, int64) []AblationRow) renderFunc {
	return report(run, func(rows []AblationRow) string { return RenderAblation(title, rows) })
}

// AllFigureIDs lists every experiment id Render accepts.
func AllFigureIDs() []string {
	ids := make([]string, len(recipes))
	for i, r := range recipes {
		ids[i] = r.id
	}
	return ids
}

// Render runs experiment id at quality q with the given seed, on the
// options installed by Configure, and renders it; plots adds the ASCII
// plots of the figure recipes.
func Render(id string, q Quality, seed int64, plots bool) (Output, error) {
	for _, r := range recipes {
		if r.id == id {
			return r.render(q, seed, plots)
		}
	}
	return Output{}, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(AllFigureIDs(), ", "))
}
