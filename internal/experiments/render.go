package experiments

import (
	"fmt"
	"strings"

	"physched/internal/asciiplot"
	"physched/internal/model"
	"physched/internal/queueing"
	"physched/internal/stats"
)

// Table renders a figure's results as a text table: one block per curve,
// one row per load, with overload marked the way the paper cuts curves.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	if f.Note != "" {
		fmt.Fprintf(&b, "  %s\n", f.Note)
	}
	for _, c := range f.Curves {
		fmt.Fprintf(&b, "\n  %s\n", c.Label)
		fmt.Fprintf(&b, "    %-12s %-10s %-14s %-14s %s\n",
			"load (j/h)", "speedup", "avg waiting", "p99 waiting", "state")
		for _, r := range c.Results {
			if r.Overloaded {
				fmt.Fprintf(&b, "    %-12.2f %-10s %-14s %-14s overloaded\n", r.Load, "-", "-", "-")
				continue
			}
			fmt.Fprintf(&b, "    %-12.2f %-10.2f %-14s %-14s steady\n",
				r.Load, r.AvgSpeedup,
				stats.FormatDuration(r.AvgWaiting), stats.FormatDuration(r.P99Waiting))
		}
	}
	return b.String()
}

// Plots renders the figure's two panels (speedup linear, waiting log) as
// ASCII charts, mirroring the paper's layout.
func (f Figure) Plots() string {
	var speedup, waiting []asciiplot.Series
	for _, c := range f.Curves {
		var sx, sy, wx, wy []float64
		for _, r := range c.Results {
			if r.Overloaded {
				continue
			}
			sx = append(sx, r.Load)
			sy = append(sy, r.AvgSpeedup)
			if r.AvgWaiting > 0 {
				wx = append(wx, r.Load)
				wy = append(wy, r.AvgWaiting)
			}
		}
		speedup = append(speedup, asciiplot.Series{Label: c.Label, X: sx, Y: sy})
		waiting = append(waiting, asciiplot.Series{Label: c.Label, X: wx, Y: wy})
	}
	top := asciiplot.Render(speedup, asciiplot.Options{
		Title: f.Title + " — average speedup", XLabel: "load (jobs/hour)", YLabel: "speedup",
	})
	bottom := asciiplot.Render(waiting, asciiplot.Options{
		Title: f.Title + " — average waiting time", XLabel: "load (jobs/hour)",
		YLabel: "waiting (s, log)", LogY: true,
	})
	return top + "\n" + bottom
}

// CSV renders the figure as comma-separated rows:
// curve,load,overloaded,speedup,avg_waiting_s,p99_waiting_s,avg_processing_s.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("curve,load_jobs_per_hour,overloaded,avg_speedup,avg_waiting_s,p99_waiting_s,avg_processing_s\n")
	for _, c := range f.Curves {
		for _, r := range c.Results {
			fmt.Fprintf(&b, "%q,%.3f,%v,%.4f,%.1f,%.1f,%.1f\n",
				c.Label, r.Load, r.Overloaded, r.AvgSpeedup, r.AvgWaiting, r.P99Waiting, r.AvgProc)
		}
	}
	return b.String()
}

// RenderDistributions renders the Figure 4 histograms.
func RenderDistributions(ds []Distribution) string {
	var b strings.Builder
	b.WriteString("Figure 4: waiting time distribution near the maximal sustainable load\n")
	b.WriteString("  Paper: bimodal — jobs with cached data overtake (left mass), jobs without are overtaken (right tail up to 1-2 days).\n")
	for _, d := range ds {
		fmt.Fprintf(&b, "\n  %s  (measured %d jobs, overloaded=%v)\n",
			d.Label, d.Result.MeasuredJobs, d.Result.Overloaded)
		for _, line := range strings.Split(strings.TrimRight(d.Histogram, "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// RenderReplication renders the §4.2 comparison table.
func RenderReplication(rows []ReplicationRow) string {
	var b strings.Builder
	b.WriteString("§4.2: out-of-order scheduling with vs without data replication\n")
	b.WriteString("  Paper: identical performance; replication used in <1‰ of arrivals.\n\n")
	fmt.Fprintf(&b, "  %-10s %-22s %-22s %s\n", "load", "plain speed/wait", "replicated speed/wait", "replicated share")
	for _, r := range rows {
		p, q := r.Plain, r.Replicate
		ps, qs := "overloaded", "overloaded"
		if !p.Overloaded {
			ps = fmt.Sprintf("%.2f / %s", p.AvgSpeedup, stats.FormatDuration(p.AvgWaiting))
		}
		if !q.Overloaded {
			qs = fmt.Sprintf("%.2f / %s", q.AvgSpeedup, stats.FormatDuration(q.AvgWaiting))
		}
		fmt.Fprintf(&b, "  %-10.2f %-22s %-22s %.4f%%\n", r.Load, ps, qs, 100*r.ReplicatedShare)
	}
	return b.String()
}

// RenderMaxLoad renders the §5.2 maximal-load experiment.
func RenderMaxLoad(rows []MaxLoadResult) string {
	var b strings.Builder
	b.WriteString("§5.2: delayed scheduling at the limit (cache 200 GB, delay 1 week, stripe 200)\n")
	if len(rows) > 0 {
		fmt.Fprintf(&b, "  Theoretical max %.2f j/h; farm max %.2f j/h. Paper: sustains ≈3 j/h with speedup >10.\n\n",
			rows[0].TheoryMax, rows[0].FarmMax)
	}
	fmt.Fprintf(&b, "  %-10s %-10s %-14s %s\n", "load", "speedup", "avg waiting", "state")
	for _, r := range rows {
		if r.Result.Overloaded {
			fmt.Fprintf(&b, "  %-10.2f %-10s %-14s overloaded\n", r.Load, "-", "-")
			continue
		}
		fmt.Fprintf(&b, "  %-10.2f %-10.2f %-14s steady\n",
			r.Load, r.Result.AvgSpeedup, stats.FormatDuration(r.Result.AvgWaiting))
	}
	return b.String()
}

// FarmRow compares the simulated farm with the analytic M/Er/m model.
type FarmRow struct {
	Load         float64
	SimWaiting   float64
	ModelWaiting float64
	Utilisation  float64
	Overloaded   bool
}

// FarmVsMErM reproduces the §3.1 statement that the processing farm is an
// M/Er/m queue, comparing simulated and analytic mean waiting times.
func FarmVsMErM(q Quality, seed int64) []FarmRow {
	p := model.PaperCalibrated()
	results := runFigure("farm", q, seed)[0].Results
	rows := make([]FarmRow, len(results))
	for i, r := range results {
		mm := queueing.MErM{
			Lambda:      r.Load / model.Hour,
			MeanService: float64(p.MeanJobEvents) * p.EventTimeTape(),
			Shape:       p.ErlangShape,
			Servers:     p.Nodes,
		}
		w, err := mm.MeanWait()
		row := FarmRow{Load: r.Load, Utilisation: mm.Utilisation(), Overloaded: r.Overloaded}
		if err == nil {
			row.ModelWaiting = w
		}
		if !r.Overloaded {
			row.SimWaiting = r.AvgWaiting
		}
		rows[i] = row
	}
	return rows
}

// RenderFarm renders the M/Er/m validation table.
func RenderFarm(rows []FarmRow) string {
	var b strings.Builder
	b.WriteString("§3.1: processing farm vs analytic M/Er/m queue\n\n")
	fmt.Fprintf(&b, "  %-10s %-12s %-16s %-16s\n", "load", "utilisation", "sim waiting", "M/Er/m waiting")
	for _, r := range rows {
		sim := "overloaded"
		if !r.Overloaded {
			sim = stats.FormatDuration(r.SimWaiting)
		}
		mdl := "unstable"
		if r.Utilisation < 1 {
			mdl = stats.FormatDuration(r.ModelWaiting)
		}
		fmt.Fprintf(&b, "  %-10.2f %-12.3f %-16s %-16s\n", r.Load, r.Utilisation, sim, mdl)
	}
	return b.String()
}
