package experiments

import (
	"fmt"
	"strings"

	"physched/internal/stats"
)

// RenderFaults renders a fault study with its churn columns: goodput,
// wasted events and re-executions alongside the headline metrics.
func RenderFaults(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Extension: node churn (stochastic failures, exponential repairs, disk loss)\n\n")
	var lastVariant string
	for _, r := range rows {
		if r.Variant != lastVariant {
			fmt.Fprintf(&b, "  %s\n", r.Variant)
			fmt.Fprintf(&b, "    %-10s %-10s %-14s %-9s %-12s %-8s %s\n",
				"load", "speedup", "avg waiting", "goodput", "wasted ev", "re-exec", "state")
			lastVariant = r.Variant
		}
		if r.Result.Overloaded {
			fmt.Fprintf(&b, "    %-10.2f %-10s %-14s %-9s %-12s %-8s overloaded\n",
				r.Load, "-", "-", "-", "-", "-")
			continue
		}
		goodput := "-"
		if r.Result.Goodput > 0 {
			goodput = fmt.Sprintf("%.3f", r.Result.Goodput)
		}
		fmt.Fprintf(&b, "    %-10.2f %-10.2f %-14s %-9s %-12d %-8d steady\n",
			r.Load, r.Result.AvgSpeedup, stats.FormatDuration(r.Result.AvgWaiting),
			goodput, r.Result.Cluster.EventsLost, r.Result.Cluster.Reexecutions)
	}
	return b.String()
}
