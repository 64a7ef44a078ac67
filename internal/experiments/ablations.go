package experiments

import (
	"fmt"
	"strings"

	"physched/internal/cache"
	"physched/internal/cluster"
	"physched/internal/lab"
	"physched/internal/sched"
	"physched/internal/stats"
)

// This file holds the ablation studies DESIGN.md §4 indexes: design
// choices the paper fixes (LRU eviction, remote reads for stolen subjobs,
// the replicate-on-3rd-access threshold, the hot-region workload skew, the
// cluster size) are varied here to show how much each one carries.

// withConfig overrides the cluster data-path configuration of a policy,
// leaving its scheduling logic untouched.
type withConfig struct {
	sched.Policy
	cfg cluster.Config
}

func (w withConfig) ClusterConfig() cluster.Config { return w.cfg }

// AblationRow is one variant of an ablation study at one load.
type AblationRow struct {
	Variant string
	Load    float64
	Result  lab.Result
}

// AblationEviction compares LRU against FIFO cache eviction under the
// out-of-order policy. The paper's scheduler "deallocates the least
// recently used cached segments"; FIFO ignores reuse and should lose
// ground on the hot regions.
func AblationEviction(q Quality, seed int64) []AblationRow {
	loads := loadGrid(q, 0.8, 1.8)
	variants := []lab.Variant{
		{Label: "LRU eviction", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
		{Label: "FIFO eviction", NewPolicy: func() sched.Policy {
			p := sched.NewOutOfOrder()
			cfg := p.ClusterConfig()
			cfg.Eviction = cache.EvictFIFO
			return withConfig{Policy: p, cfg: cfg}
		}},
	}
	return ablate(baseScenario(q, seed), loads, variants)
}

// AblationStealSource compares reading stolen subjobs' data remotely (the
// §4.2 choice) against re-reading it from tertiary storage.
func AblationStealSource(q Quality, seed int64) []AblationRow {
	loads := loadGrid(q, 0.8, 1.8)
	variants := []lab.Variant{
		{Label: "steal reads remote", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
		{Label: "steal re-reads tape", NewPolicy: func() sched.Policy {
			p := sched.NewOutOfOrder()
			cfg := p.ClusterConfig()
			cfg.RemoteReads = false
			return withConfig{Policy: p, cfg: cfg}
		}},
	}
	return ablate(baseScenario(q, seed), loads, variants)
}

// AblationReplicationThreshold varies the replicate-after-N-remote-accesses
// threshold (the paper picks 3 and finds replication irrelevant either
// way).
func AblationReplicationThreshold(q Quality, seed int64) []AblationRow {
	loads := loadGrid(q, 1.0, 1.8)
	var variants []lab.Variant
	for _, n := range []int64{1, 2, 3, 5} {
		n := n
		variants = append(variants, lab.Variant{
			Label: fmt.Sprintf("replicate after %d", n),
			NewPolicy: func() sched.Policy {
				p := sched.NewReplication()
				cfg := p.ClusterConfig()
				cfg.ReplicateAfter = n
				return withConfig{Policy: p, cfg: cfg}
			},
		})
	}
	return ablate(baseScenario(q, seed), loads, variants)
}

// HeterogeneityStudy relaxes the paper's "all nodes are identical"
// assumption (§2.4): half the nodes run at double CPU cost. It compares
// how the farm (blind placement) and out-of-order (work stealing) policies
// absorb the imbalance at equal aggregate CPU capacity.
func HeterogeneityStudy(q Quality, seed int64) []AblationRow {
	loads := loadGrid(q, 0.6, 1.4)
	mixed := make([]float64, 10)
	for i := range mixed {
		// Factors 2/3 and 2: five fast and five slow nodes whose combined
		// speed 5/f1+5/f2 = 5·1.5+5·0.5 = 10 equals ten identical nodes.
		if i < 5 {
			mixed[i] = 2.0 / 3.0
		} else {
			mixed[i] = 2.0
		}
	}
	hetero := func(s *lab.Scenario) { s.Params.NodeSpeedFactors = mixed }
	variants := []lab.Variant{
		{Label: "farm, identical nodes", NewPolicy: func() sched.Policy { return sched.NewFarm() }},
		{Label: "farm, mixed speeds", NewPolicy: func() sched.Policy { return sched.NewFarm() }, Mutate: hetero},
		{Label: "out-of-order, identical nodes", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }},
		{Label: "out-of-order, mixed speeds", NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() }, Mutate: hetero},
	}
	return ablate(baseScenario(q, seed), loads, variants)
}

// NodeCountRow is one cluster size of the §2.4 scaling check.
type NodeCountRow struct {
	Nodes       int
	Utilisation float64 // load as a fraction of that cluster's maximum
	Result      lab.Result
	Efficiency  float64 // speedup / nodes
}

// NodeCountStudy reproduces the §2.4 remark that simulations with 5, 10
// and 20 nodes "lead to similar results": at equal utilisation the per-node
// efficiency of the out-of-order policy should be nearly constant. Each
// (nodes, utilisation) combination is one grid variant whose mutation
// binds both the cluster size and the matching absolute load.
func NodeCountStudy(q Quality, seed int64) []NodeCountRow {
	type cfg struct {
		nodes int
		util  float64
	}
	var cfgs []cfg
	var variants []lab.Variant
	for _, nodes := range []int{5, 10, 20} {
		for _, util := range []float64{0.3, 0.45} {
			nodes, util := nodes, util
			cfgs = append(cfgs, cfg{nodes, util})
			variants = append(variants, lab.Variant{
				Label:     fmt.Sprintf("%d nodes @ %.0f%%", nodes, 100*util),
				NewPolicy: func() sched.Policy { return sched.NewOutOfOrder() },
				Mutate: func(s *lab.Scenario) {
					s.Params.Nodes = nodes
					s.Load = util * s.Params.MaxTheoreticalLoad()
				},
			})
		}
	}
	base := baseScenario(q, seed)
	rs := grid(base, nil, variants)
	rows := make([]NodeCountRow, len(cfgs))
	for i, c := range cfgs {
		r := rs.Result(i, 0, 0)
		row := NodeCountRow{Nodes: c.nodes, Utilisation: c.util, Result: r}
		if !r.Overloaded {
			row.Efficiency = r.AvgSpeedup / float64(c.nodes)
		}
		rows[i] = row
	}
	return rows
}

// ablate sweeps all variants and flattens the curves into rows.
func ablate(base lab.Scenario, loads []float64, variants []lab.Variant) []AblationRow {
	return flatten(sweepCurves(base, loads, variants))
}

// flatten turns curves into ablation rows, grouped by curve.
func flatten(curves []lab.Curve) []AblationRow {
	var rows []AblationRow
	for _, c := range curves {
		for _, r := range c.Results {
			rows = append(rows, AblationRow{Variant: c.Label, Load: r.Load, Result: r})
		}
	}
	return rows
}

// RenderAblation renders ablation rows grouped by variant.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	var lastVariant string
	for _, r := range rows {
		if r.Variant != lastVariant {
			fmt.Fprintf(&b, "  %s\n", r.Variant)
			fmt.Fprintf(&b, "    %-10s %-10s %-14s %s\n", "load", "speedup", "avg waiting", "state")
			lastVariant = r.Variant
		}
		if r.Result.Overloaded {
			fmt.Fprintf(&b, "    %-10.2f %-10s %-14s overloaded\n", r.Load, "-", "-")
			continue
		}
		fmt.Fprintf(&b, "    %-10.2f %-10.2f %-14s steady\n",
			r.Load, r.Result.AvgSpeedup, stats.FormatDuration(r.Result.AvgWaiting))
	}
	return b.String()
}

// RenderNodeCount renders the §2.4 scaling table.
func RenderNodeCount(rows []NodeCountRow) string {
	var b strings.Builder
	b.WriteString("§2.4: cluster-size scaling (5/10/20 nodes lead to similar results)\n\n")
	fmt.Fprintf(&b, "  %-8s %-14s %-10s %-12s %s\n", "nodes", "utilisation", "speedup", "efficiency", "state")
	for _, r := range rows {
		if r.Result.Overloaded {
			fmt.Fprintf(&b, "  %-8d %-14.2f %-10s %-12s overloaded\n", r.Nodes, r.Utilisation, "-", "-")
			continue
		}
		fmt.Fprintf(&b, "  %-8d %-14.2f %-10.2f %-12.3f steady\n",
			r.Nodes, r.Utilisation, r.Result.AvgSpeedup, r.Efficiency)
	}
	return b.String()
}
