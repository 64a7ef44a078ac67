package opt

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"physched/internal/lab"
	"physched/internal/spec"
)

// smallStudy is a fast, valid study over a tiny cluster: two policies
// crossed with two cache sizes.
func smallStudy() Study {
	return Study{
		Base: spec.Spec{
			Params:      spec.Params{Nodes: 3, CacheGB: 6, MeanJobEvents: 1_000, DataspaceGB: 60},
			Policy:      spec.Policy{Name: "outoforder"},
			Load:        1.0,
			Seed:        5,
			WarmupJobs:  10,
			MeasureJobs: 40,
		},
		Axes: []Axis{
			{Name: "policy", Values: []string{"outoforder", "farm"}},
			{Name: "cache_gb", Min: 6, Max: 24, Steps: 2},
		},
		Objective: Objective{Metric: "mean_speedup"},
		Search:    Search{Algorithm: "random", BudgetCells: 8, Replications: 2, Seed: 1},
	}
}

func TestStudyRoundTripsThroughJSON(t *testing.T) {
	st := smallStudy()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("round trip changed the study:\n%s\n%s", b, b2)
	}
}

func TestStudyRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := Parse(strings.NewReader(`{"axes": [{"name": "load", "mni": 1}]}`)); err == nil {
		t.Error("unknown axis field accepted")
	}
}

// canonical returns the encoding Prepare hashes: compact JSON of the
// normalised, validated study.
func canonical(st Study) ([]byte, error) {
	p, err := st.Prepare()
	if err != nil {
		return nil, err
	}
	return json.Marshal(p.Study)
}

// TestStudyCanonicalEncodeDecodeEncodeIdentity is the canonicalisation
// contract over a table of representative studies: encoding, decoding
// and re-encoding a canonical form is byte-identical.
func TestStudyCanonicalEncodeDecodeEncodeIdentity(t *testing.T) {
	halving := smallStudy()
	halving.Search = Search{Algorithm: "halving", BudgetCells: 12, Replications: 4, Eta: 2, Seed: 9}
	defaulted := smallStudy()
	defaulted.Search = Search{BudgetCells: 4} // algorithm, reps, top_k all defaulted
	defaulted.Objective = Objective{Metric: "mean_waiting"}
	loadAxis := smallStudy()
	loadAxis.Base.Load = 0
	loadAxis.Axes = append(loadAxis.Axes, Axis{Name: "load", Min: 0.5, Max: 1.5, Steps: 3})
	logAxis := smallStudy()
	logAxis.Axes[1] = Axis{Name: "stripe_events", Min: 200, Max: 5000, Steps: 3, Scale: "log"}
	logAxis.Axes[0] = Axis{Name: "policy", Values: []string{"delayed", "adaptive"}}

	for i, st := range []Study{smallStudy(), halving, defaulted, loadAxis, logAxis} {
		c, err := canonical(st)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := Parse(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("case %d: decoding canonical form: %v", i, err)
		}
		c2, err := canonical(back)
		if err != nil {
			t.Fatalf("case %d: re-canonicalising: %v", i, err)
		}
		if !bytes.Equal(c, c2) {
			t.Errorf("case %d: canonical form unstable:\n%s\n%s", i, c, c2)
		}
	}
}

// FuzzStudyCanonicalRoundTrip mirrors the spec fuzz: any study that
// canonicalises must decode and re-encode byte-identically.
func FuzzStudyCanonicalRoundTrip(f *testing.F) {
	f.Add(int64(1), 1.0, 8, 2, true, 0.5, 2.0, 3, false)
	f.Add(int64(-7), 2.5, 30, 4, false, 6.0, 24.0, 2, true)
	f.Add(int64(0), 0.25, 3, 1, true, 0.1, 10.0, 5, true)
	f.Fuzz(func(t *testing.T, seed int64, load float64, budget, reps int, halving bool,
		min, max float64, steps int, logScale bool) {
		st := smallStudy()
		st.Base.Seed = seed
		st.Base.Load = load
		st.Search.BudgetCells = budget
		st.Search.Replications = reps
		if halving {
			st.Search.Algorithm = "halving"
		}
		scale := "linear"
		if logScale {
			scale = "log"
		}
		st.Axes[1] = Axis{Name: "load", Min: min, Max: max, Steps: steps, Scale: scale}
		c, err := canonical(st)
		if err != nil {
			t.Skip() // invalid studies are rejected, not canonicalised
		}
		back, err := Parse(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, c)
		}
		c2, err := canonical(back)
		if err != nil {
			t.Fatalf("canonical form does not re-canonicalise: %v\n%s", err, c)
		}
		if !bytes.Equal(c, c2) {
			t.Fatalf("canonical form unstable:\n%s\n%s", c, c2)
		}
	})
}

func TestStudyValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Study)
	}{
		{"no axes", func(st *Study) { st.Axes = nil }},
		{"unknown axis", func(st *Study) { st.Axes[0].Name = "bogus" }},
		{"duplicate axis", func(st *Study) { st.Axes[1] = st.Axes[0] }},
		{"categorical with steps", func(st *Study) { st.Axes[0].Steps = 3 }},
		{"numeric with values", func(st *Study) { st.Axes[1].Values = []string{"x"} }},
		{"one step", func(st *Study) { st.Axes[1].Steps = 1 }},
		{"min==max", func(st *Study) { st.Axes[1].Min, st.Axes[1].Max = 6, 6 }},
		{"log from zero", func(st *Study) { st.Axes[1].Min, st.Axes[1].Scale = 0, "log" }},
		{"bad scale", func(st *Study) { st.Axes[1].Scale = "cubic" }},
		{"repeated value", func(st *Study) { st.Axes[0].Values = []string{"farm", "farm"} }},
		{"bad metric", func(st *Study) { st.Objective.Metric = "speed" }},
		{"bad direction", func(st *Study) { st.Objective.Direction = "up" }},
		{"no budget", func(st *Study) { st.Search.BudgetCells = 0 }},
		{"budget under reps", func(st *Study) { st.Search.BudgetCells = 1; st.Search.Replications = 4 }},
		{"eta on random", func(st *Study) { st.Search.Eta = 3 }},
		{"eta one", func(st *Study) { st.Search.Algorithm = "halving"; st.Search.Eta = 1 }},
		{"bad algorithm", func(st *Study) { st.Search.Algorithm = "anneal" }},
		{"bad schema version", func(st *Study) { st.SchemaVersion = 99 }},
		{"no valid candidate", func(st *Study) {
			st.Axes = []Axis{{Name: "policy", Values: []string{"farm"}}}
			st.Base.Policy.DelayHours = 11 // farm rejects delay_hours
		}},
		{"base without load", func(st *Study) { st.Base.Load = 0 }},
	}
	for _, tc := range cases {
		st := smallStudy()
		tc.mutate(&st)
		if _, err := st.Prepare(); err == nil {
			t.Errorf("%s: invalid study accepted", tc.name)
		}
	}
}

func TestAxisPoints(t *testing.T) {
	lin := Axis{Name: "load", Min: 1, Max: 3, Steps: 5}
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i, v := range lin.points() {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Errorf("linear point %d = %v, want %v", i, v, want[i])
		}
	}
	log := Axis{Name: "stripe_events", Min: 200, Max: 5000, Steps: 3, Scale: "log"}
	pts := log.points()
	if pts[0] != 200 || pts[2] != 5000 {
		t.Errorf("log endpoints drifted: %v", pts)
	}
	if mid := pts[1]; math.Abs(mid-1000) > 1 { // geometric mean of 200 and 5000
		t.Errorf("log midpoint = %v, want ≈1000", mid)
	}
}

// TestSpaceSkipsInvalidCombinations: crossing a policy axis with a
// parameter only some policies take keeps the valid combinations and
// counts the rest, instead of rejecting the study.
func TestSpaceSkipsInvalidCombinations(t *testing.T) {
	st := smallStudy()
	st.Axes = []Axis{
		{Name: "policy", Values: []string{"delayed", "adaptive"}},
		{Name: "delay_hours", Min: 0, Max: 48, Steps: 3},
	}
	sp, err := st.space()
	if err != nil {
		t.Fatal(err)
	}
	// delayed takes every delay; adaptive only delay 0.
	if len(sp.valid) != 4 || sp.invalid != 2 {
		t.Errorf("space = %d valid + %d invalid, want 4 + 2", len(sp.valid), sp.invalid)
	}
	labels := make([]string, len(sp.valid))
	for i, c := range sp.valid {
		labels[i] = sp.label(c)
	}
	want := []string{
		"policy=delayed delay_hours=0",
		"policy=delayed delay_hours=24",
		"policy=delayed delay_hours=48",
		"policy=adaptive delay_hours=0",
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, labels[i], want[i])
		}
	}
}

// TestSpaceDeduplicatesRoundedCandidates: integer axes round their
// interpolation points, so a fine-grained range can collapse several
// points onto one spec — only the first survives, the rest are counted,
// and the budget is never charged twice for the same cell.
func TestSpaceDeduplicatesRoundedCandidates(t *testing.T) {
	st := smallStudy()
	// nodes over [1,3] in 5 steps → 1, 1.5, 2, 2.5, 3 → rounds to
	// 1, 2, 2, 3, 3: two duplicates.
	st.Axes = []Axis{{Name: "nodes", Min: 1, Max: 3, Steps: 5}}
	sp, err := st.space()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.valid) != 3 || sp.duplicates != 2 || sp.invalid != 0 {
		t.Fatalf("space = %d valid, %d duplicates, %d invalid; want 3, 2, 0",
			len(sp.valid), sp.duplicates, sp.invalid)
	}
	st.Search = Search{Algorithm: "random", BudgetCells: 100, Replications: 2, Seed: 1}
	rep, err := Run(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpaceSize != 3 || rep.DuplicateCandidates != 2 {
		t.Errorf("report space accounting: %+v", rep)
	}
	// 3 distinct candidates × 2 replications: nothing charged twice.
	if rep.EvaluatedCells != 6 || rep.Candidates != 3 {
		t.Errorf("deduped study charged %d cells over %d candidates, want 6 over 3",
			rep.EvaluatedCells, rep.Candidates)
	}
}

// TestLeaderboardPrefersDeeperEvaluations: a candidate pruned at a
// shallow halving rung must not outrank a full-replication survivor on
// the strength of a noisy one-replication estimate.
func TestLeaderboardPrefersDeeperEvaluations(t *testing.T) {
	st := smallStudy()
	st.Axes = []Axis{
		{Name: "policy", Values: []string{"outoforder", "farm", "cacheoriented", "splitting"}},
		{Name: "cache_gb", Min: 6, Max: 24, Steps: 3},
		{Name: "load", Min: 0.6, Max: 1.0, Steps: 2},
	}
	st.Search = Search{Algorithm: "halving", BudgetCells: 40, Replications: 4, Eta: 3, Seed: 2}
	rep, err := Run(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for _, e := range rep.Leaderboard {
		if e.Replicas > deepest {
			deepest = e.Replicas
		}
	}
	if rep.Best == nil || rep.Best.Replicas != deepest {
		t.Errorf("winner judged at %d replicas, deepest evaluation was %d", rep.Best.Replicas, deepest)
	}
	for i := 1; i < len(rep.Leaderboard); i++ {
		hi, lo := rep.Leaderboard[i-1], rep.Leaderboard[i]
		if hi.steady() && lo.steady() && lo.Replicas > hi.Replicas {
			t.Errorf("leaderboard rank %d (%d replicas) outranked by rank %d (%d replicas)",
				i, hi.Replicas, i+1, lo.Replicas)
		}
	}
}

// TestObjectiveEval covers the metric table and the all-overloaded case.
func TestObjectiveEval(t *testing.T) {
	agg := aggOf(t, []float64{2, 4}, false)
	if v, _, ok := (Objective{Metric: "mean_speedup"}).normalize().Eval(agg); !ok || v != 3 {
		t.Errorf("mean_speedup = %v ok=%v, want 3 true", v, ok)
	}
	if _, _, ok := (Objective{Metric: "goodput"}).normalize().Eval(aggOf(t, []float64{1}, true)); ok {
		t.Error("all-overloaded aggregate produced an objective value")
	}
	min := Objective{Metric: "mean_waiting"}.normalize()
	if min.Direction != "min" || !min.better(1, 2) {
		t.Errorf("waiting metric should default to min")
	}
	max := Objective{Metric: "goodput"}.normalize()
	if max.Direction != "max" || !max.better(2, 1) {
		t.Errorf("goodput should default to max")
	}
}

// aggOf builds a replica aggregate with the given speedups.
func aggOf(t *testing.T, speedups []float64, overloaded bool) lab.Aggregate {
	t.Helper()
	results := make([]lab.Result, len(speedups))
	for i, s := range speedups {
		results[i] = lab.Result{AvgSpeedup: s, Overloaded: overloaded}
	}
	return lab.NewAggregate(results)
}
