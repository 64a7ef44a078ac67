package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/opt"
	"physched/internal/trace"
)

// smallSpec is a scenario that runs in milliseconds.
const smallSpec = `{
	"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
	"policy": {"name": "outoforder"},
	"load_jobs_per_hour": 1.0,
	"seed": 2,
	"warmup_jobs": 10,
	"measure_jobs": 50
}`

// writeFile writes body to a fresh file in a test directory.
func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs f with os.Stdout and os.Stderr redirected to files and
// returns what it printed to each.
func capture(t *testing.T, f func() error) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	outF, e1 := os.Create(filepath.Join(dir, "stdout"))
	errF, e2 := os.Create(filepath.Join(dir, "stderr"))
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	defer outF.Close()
	defer errF.Close()
	prevOut, prevErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	err = f()
	os.Stdout, os.Stderr = prevOut, prevErr
	o, e1 := os.ReadFile(outF.Name())
	e, e2 := os.ReadFile(errF.Name())
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	return string(o), string(e), err
}

// TestReadInputRoutesKinds: every shipped example file is parsed by the
// parser its top-level keys select.
func TestReadInputRoutesKinds(t *testing.T) {
	want := map[string]string{"faults.json": kindSpec, "grid.json": kindGrid, "study.json": kindStudy}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specfile", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example files: %v", err)
	}
	for _, path := range paths {
		in, err := readInput(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if k, ok := want[filepath.Base(path)]; !ok || in.kind != k {
			t.Errorf("%s routed to %q, want %q", path, in.kind, k)
		}
	}
}

// TestLoadSpecRejectsBadFiles: a missing file, a non-object and a file
// with unknown or misspelt keys fail, the last with the spec parser's
// unknown-field error.
func TestLoadSpecRejectsBadFiles(t *testing.T) {
	if _, err := readInput(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	for _, body := range []string{`[]`, `{"bogus": 1}`} {
		if _, err := readInput(writeFile(t, "bad.json", body)); err == nil {
			t.Errorf("%s accepted", body)
		}
	}
	typo := strings.Replace(smallSpec, `"measure_jobs"`, `"measure_job"`, 1)
	_, err := readInput(writeFile(t, "typo.json", typo))
	if err == nil || !strings.Contains(err.Error(), `spec: json: unknown field "measure_job"`) {
		t.Errorf("misspelt key: got %v, want the spec parser's unknown-field error", err)
	}
}

func TestUsageNeedsExactlyOneInput(t *testing.T) {
	path := writeFile(t, "scenario.json", smallSpec)
	for _, tc := range []struct {
		c    cli
		args []string
	}{
		{cli{}, nil},
		{cli{fig: "farm"}, []string{path}},
		{cli{}, []string{path, path}},
	} {
		if err := tc.c.run(tc.args, nil); !errors.Is(err, errUsage) {
			t.Errorf("fig=%q args=%v: got %v, want the usage error", tc.c.fig, tc.args, err)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		kind string
		set  []string
		ok   bool
	}{
		{kindFig, []string{"csv", "fig", "parallel", "plots", "progress", "quality", "seed", "timeout"}, true},
		{kindSpec, []string{"histogram", "parallel", "progress", "timeout", "trace"}, true},
		{kindSpec, []string{"cache-dir", "progress"}, true},
		{kindSpec, []string{"server", "timeout"}, true},
		{kindGrid, []string{"cache-dir", "csv", "parallel", "plots", "progress", "timeout"}, true},
		{kindStudy, []string{"cache-dir", "parallel", "progress", "timeout"}, true},
		{kindStudy, []string{"progress", "server", "timeout"}, true},

		{kindFig, []string{"cache-dir", "fig"}, false},
		{kindFig, []string{"fig", "trace"}, false},
		{kindSpec, []string{"seed"}, false},
		{kindSpec, []string{"csv"}, false},
		{kindSpec, []string{"cache-dir", "trace"}, false},
		{kindSpec, []string{"cache-dir", "histogram"}, false},
		{kindSpec, []string{"histogram", "server"}, false},
		{kindSpec, []string{"parallel", "server"}, false},
		{kindGrid, []string{"server"}, false},
		{kindGrid, []string{"trace"}, false},
		{kindStudy, []string{"histogram"}, false},
		{kindStudy, []string{"cache-dir", "server"}, false},
	} {
		if err := checkFlags(tc.kind, tc.set); (err == nil) != tc.ok {
			t.Errorf("%s %v: got %v, want ok=%v", tc.kind, tc.set, err, tc.ok)
		}
	}
}

// TestLoadSpecRunsScenario: a spec file runs as a one-cell grid and
// prints its metrics report.
func TestLoadSpecRunsScenario(t *testing.T) {
	path := writeFile(t, "scenario.json", smallSpec)
	out, _, err := capture(t, func() error { return cli{}.run([]string{path}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"policy            outoforder", "state             steady (50 jobs measured"} {
		if !strings.Contains(out, needle) {
			t.Errorf("report lacks %q:\n%s", needle, out)
		}
	}
}

// TestRunSimulationWithoutTrace: -histogram keeps the run's collector for
// the waiting-time distribution, and the report prints either outcome.
func TestRunSimulationWithoutTrace(t *testing.T) {
	path := writeFile(t, "scenario.json", smallSpec)
	c := cli{histogram: true}
	out, _, err := capture(t, func() error { return c.run([]string{path}, []string{"histogram"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "waiting-time distribution:") {
		t.Errorf("no histogram in:\n%s", out)
	}
	out, _, _ = capture(t, func() error {
		report(lab.Result{PolicyName: "farm", Overloaded: true}, model.PaperCalibrated(), false)
		return nil
	})
	if !strings.Contains(out, "OVERLOADED") {
		t.Errorf("overloaded run reported as:\n%s", out)
	}
}

// TestSpecFileServedFromCache: with a warm -cache-dir a spec run is a
// cache hit under the spec's own hash, prints the same report, and says
// so on stderr the way a remote hit does.
func TestSpecFileServedFromCache(t *testing.T) {
	path := writeFile(t, "scenario.json", smallSpec)
	in, err := readInput(path)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := in.spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	c := cli{cacheDir: t.TempDir()}
	cold, coldErr, err := capture(t, func() error { return c.run([]string{path}, []string{"cache-dir"}) })
	if err != nil {
		t.Fatal(err)
	}
	warm, warmErr, err := capture(t, func() error { return c.run([]string{path}, []string{"cache-dir"}) })
	if err != nil {
		t.Fatal(err)
	}
	if cold != warm {
		t.Errorf("cached report differs:\n%s\nvs\n%s", cold, warm)
	}
	if coldErr != "" || warmErr != "served from cache (hash "+hash+")\n" {
		t.Errorf("stderr: cold %q, warm %q", coldErr, warmErr)
	}
}

// TestGridFileReportsReplicas: a grid with several seeds prints the
// replica aggregate of every (variant, load) under its table.
func TestGridFileReportsReplicas(t *testing.T) {
	grid := `{"base": ` + smallSpec + `, "variants": [{"label": "ooo"}, {"label": "farm", "policy": {"name": "farm"}}],
		"loads": [0.5, 1.0], "seeds": [1, 2, 3]}`
	path := writeFile(t, "grid.json", grid)
	out, _, err := capture(t, func() error { return cli{}.run([]string{path}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "replicas          3 ("); n != 4 {
		t.Errorf("%d replica blocks, want one per (variant, load) = 4:\n%s", n, out)
	}
	for _, needle := range []string{"ooo, load 0.50 jobs/hour\n", "farm, load 1.00 jobs/hour\n"} {
		if !strings.Contains(out, needle) {
			t.Errorf("output lacks %q", needle)
		}
	}
}

// TestSeedsOnlyGridLabelsItsCurve: a grid without variants has one
// curve, the base scenario; the table and every replica line name it
// after the base policy instead of leaving the label blank.
func TestSeedsOnlyGridLabelsItsCurve(t *testing.T) {
	path := writeFile(t, "seeds.json", `{"base": `+smallSpec+`, "seeds": [1, 2]}`)
	out, _, err := capture(t, func() error { return cli{}.run([]string{path}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\n  outoforder\n") {
		t.Errorf("the table does not name its curve outoforder:\n%s", out)
	}
	if !strings.Contains(out, "\noutoforder, load 1.00 jobs/hour\n") {
		t.Errorf("the replica lines do not name their curve:\n%s", out)
	}
	if strings.Contains(out, "\n  \n") {
		t.Errorf("a blank curve label is left:\n%s", out)
	}
}

// TestSpecRunWritesTrace: `physchedsim -trace out.jsonl scenario.json`
// records the run's event trace — the user-facing producer path for
// internal/trace. The written JSONL must parse back and cover the whole
// job lifecycle plus the periodic cluster samples.
func TestSpecRunWritesTrace(t *testing.T) {
	specPath := writeFile(t, "scenario.json", smallSpec)
	tracePath := filepath.Join(t.TempDir(), "out.jsonl")
	c := cli{tracePath: tracePath}
	out, _, err := capture(t, func() error { return c.run([]string{specPath}, []string{"trace"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "trace written to "+tracePath+"\n") {
		t.Errorf("output does not start with the trace line:\n%s", out)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, want := range []trace.Kind{trace.JobArrived, trace.SubjobStarted, trace.SubjobFinished, trace.JobFinished, trace.Sample} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events (saw %v)", want, kinds)
		}
	}
	if sum := trace.Summarise(events); sum.Jobs == 0 || sum.Subjobs == 0 {
		t.Errorf("trace summary empty: %+v", sum)
	}
}

// TestRunStudyFromFile drives a study file end to end on the shipped
// example: the search must respect its budget and print a leaderboard,
// and a warm -cache-dir must make a second run re-simulate nothing.
func TestRunStudyFromFile(t *testing.T) {
	in, err := readInput(filepath.Join("..", "..", "examples", "specfile", "study.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := cli{cacheDir: t.TempDir()}
	runStudy := func() *opt.Report {
		t.Helper()
		var rep *opt.Report
		_, _, err := capture(t, func() (err error) {
			rep, err = c.runStudy(lab.Options{Context: context.Background()}, in.study)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := runStudy()
	if cold.EvaluatedCells == 0 || cold.EvaluatedCells > cold.Budget || cold.Best == nil {
		t.Fatalf("bad cold report: %+v", cold)
	}
	warm := runStudy()
	if warm.SimulatedCells != 0 {
		t.Errorf("warm -cache-dir run re-simulated %d cells", warm.SimulatedCells)
	}
	if warm.Best == nil || *warm.Best != *cold.Best {
		t.Errorf("warm and cold winners differ: %+v vs %+v", warm.Best, cold.Best)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := cli{fig: "bogus", quality: "quick"}.run(nil, []string{"fig"})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "bogus"`) {
		t.Errorf("unknown experiment id: got %v", err)
	}
}

func TestCSVWriteFailureSurfaces(t *testing.T) {
	c := cli{fig: "fig2", quality: "quick", seed: 1, csvDir: "/nonexistent-dir-for-physched-test"}
	_, _, err := capture(t, func() error { return c.run(nil, []string{"csv", "fig"}) })
	if err == nil || !strings.Contains(err.Error(), "writing /nonexistent-dir-for-physched-test/fig2.csv") {
		t.Errorf("unwritable CSV dir: got %v", err)
	}
}

// TestFigureFileRunsAsGridFile: element 0 of an embedded figure file is a
// complete grid document. Run as a grid file it prints the same table
// rows and CSV as `-fig fig3`; only the title lines differ.
func TestFigureFileRunsAsGridFile(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "figures", "quick", "fig3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(body, &elems); err != nil || len(elems) == 0 {
		t.Fatalf("fig3.json: %v, %d elements", err, len(elems))
	}
	path := writeFile(t, "fig3-0.json", string(elems[0]))
	figDir, gridDir := t.TempDir(), t.TempDir()
	fig := cli{fig: "fig3", quality: "quick", seed: 1, csvDir: figDir}
	figOut, _, err := capture(t, func() error { return fig.run(nil, []string{"fig", "plots", "csv"}) })
	if err != nil {
		t.Fatal(err)
	}
	grid := cli{csvDir: gridDir}
	gridOut, _, err := capture(t, func() error { return grid.run([]string{path}, []string{"plots", "csv"}) })
	if err != nil {
		t.Fatal(err)
	}
	// The rows follow the title and note, from the first blank line to the
	// blank line that ends the table.
	rows := func(out string) string {
		_, after, _ := strings.Cut(out, "\n\n")
		table, _, _ := strings.Cut(after, "\n\n\n")
		return table
	}
	if rows(figOut) == "" || rows(figOut) != rows(gridOut) {
		t.Errorf("table rows differ:\n-fig fig3:\n%s\ngrid file:\n%s", figOut, gridOut)
	}
	figCSV, err1 := os.ReadFile(filepath.Join(figDir, "fig3.csv"))
	gridCSV, err2 := os.ReadFile(filepath.Join(gridDir, "spec.csv"))
	if err1 != nil || err2 != nil || string(figCSV) != string(gridCSV) {
		t.Errorf("CSV differs (%v, %v):\n%s\nvs\n%s", err1, err2, figCSV, gridCSV)
	}
}
