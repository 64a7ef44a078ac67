// Command physchedsim runs the paper's scenarios: one JSON file — a
// scenario spec, a grid or a budgeted study — or, with -fig, the recipes
// behind the evaluation's figures and tables.
//
//	physchedsim [flags] FILE.json
//	physchedsim [flags] -fig ID|all
//
// The file's kind comes from its top-level keys: "axes", "objective" or
// "search" make a study (internal/opt), "base" a grid (internal/spec),
// anything else a spec; each kind's parser rejects unknown fields. A spec
// runs as the one-cell grid, so spec and grid files share one execution
// path, and -cache-dir backs every kind with the content-addressed result
// cache physchedd uses too. A spec prints its metrics report (-histogram
// adds the waiting-time distribution, -trace writes a JSONL trace); a
// grid prints a figure-style table and, with several seeds, the replica
// mean ± 95% CI of every (variant, load); a study prints its leaderboard
// and best-objective-vs-budget plot. With -server a spec or study file
// runs on a physchedd service through physched/client, printing the same
// report. -parallel bounds concurrent runs, -timeout aborts and discards
// partial output, -progress streams completions to stderr. A flag that
// does not apply to the chosen input is an error.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"physched/client"
	"physched/internal/experiments"
	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/opt"
	"physched/internal/resultcache"
	"physched/internal/spec"
	"physched/internal/stats"
	"physched/internal/trace"
)

// cli holds the parsed flags.
type cli struct {
	fig, quality, csvDir, cacheDir, server, tracePath string
	seed                                              int64
	plots, histogram, progress                        bool
	parallel                                          int
	timeout                                           time.Duration
}

// errUsage reports a command line naming neither or both of a file and
// -fig.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("physchedsim: ")
	var c cli
	flag.StringVar(&c.fig, "fig", "", "run this experiment recipe, or all of them, instead of a file: "+strings.Join(experiments.AllFigureIDs(), ", "))
	flag.StringVar(&c.quality, "quality", "quick", "-fig scale: quick (benchmark scale) or full (report scale)")
	flag.Int64Var(&c.seed, "seed", 1, "-fig random seed")
	flag.StringVar(&c.csvDir, "csv", "", "directory to write CSV files to (-fig and grid files)")
	flag.BoolVar(&c.plots, "plots", true, "render ASCII plots (-fig and grid files)")
	flag.StringVar(&c.cacheDir, "cache-dir", "", "content-addressed result cache directory (empty = no cache for specs and grids, in-memory for studies)")
	flag.StringVar(&c.server, "server", "", "physchedd base URL: run the spec or study file on the service instead of in-process")
	flag.StringVar(&c.tracePath, "trace", "", "write the spec run's JSONL execution trace to this file")
	flag.BoolVar(&c.histogram, "histogram", false, "print the spec run's waiting-time histogram")
	flag.IntVar(&c.parallel, "parallel", 0, "max concurrent simulation runs (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
	flag.DurationVar(&c.timeout, "timeout", 0, "abort after this wall-clock duration, discarding partial output (0 = no limit)")
	flag.BoolVar(&c.progress, "progress", false, "stream per-cell completions to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: physchedsim [flags] FILE.json\n       physchedsim [flags] -fig ID|all\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := c.run(flag.Args(), set); errors.Is(err, errUsage) {
		flag.Usage()
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

// Input kinds, phrased for error messages.
const (
	kindFig   = "-fig"
	kindSpec  = "a spec file"
	kindGrid  = "a grid file"
	kindStudy = "a study file"
	remote    = " with -server"
)

// applicable lists the flags that shape a run of each input kind.
var applicable = map[string][]string{
	kindFig:            {"fig", "quality", "seed", "csv", "plots", "parallel", "timeout", "progress"},
	kindSpec:           {"cache-dir", "trace", "histogram", "parallel", "timeout", "progress"},
	kindGrid:           {"cache-dir", "csv", "plots", "parallel", "timeout", "progress"},
	kindStudy:          {"cache-dir", "parallel", "timeout", "progress"},
	kindSpec + remote:  {"server", "timeout"},
	kindStudy + remote: {"server", "timeout", "progress"},
}

// checkFlags rejects every explicitly set flag that does not shape a run
// of the given input kind.
func checkFlags(kind string, set []string) error {
	if slices.Contains(set, "server") && applicable[kind+remote] != nil {
		kind += remote
	}
	for _, name := range set {
		if !slices.Contains(applicable[kind], name) {
			return fmt.Errorf("-%s does not apply to %s", name, kind)
		}
	}
	if slices.Contains(set, "cache-dir") && (slices.Contains(set, "trace") || slices.Contains(set, "histogram")) {
		return errors.New("-trace and -histogram need a fresh run; they do not apply with -cache-dir")
	}
	return nil
}

// input is one parsed scenario file.
type input struct {
	path, kind string
	body       []byte
	spec       spec.Spec
	grid       spec.Grid // a spec file's one-cell grid
	study      opt.Study
}

// readInput reads a scenario file and parses it with the parser its
// top-level keys select.
func readInput(path string) (input, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return input{}, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		return input{}, fmt.Errorf("%s: want a JSON object: %w", path, err)
	}
	has := func(keys ...string) bool {
		return slices.ContainsFunc(keys, func(k string) bool { _, ok := top[k]; return ok })
	}
	in := input{path: path, body: body}
	switch {
	case has("axes", "objective", "search"):
		in.kind = kindStudy
		in.study, err = opt.Parse(bytes.NewReader(body))
	case has("base"):
		in.kind = kindGrid
		in.grid, err = spec.ParseGrid(bytes.NewReader(body))
	default:
		in.kind = kindSpec
		in.spec, err = spec.Parse(bytes.NewReader(body))
		in.grid = spec.Grid{Base: in.spec}
	}
	if err != nil {
		return input{}, fmt.Errorf("%s: %w", path, err)
	}
	return in, nil
}

// run executes the -fig recipes or the one file in args. Every local run
// shares one pool bounded by -parallel, the -timeout context and the
// -progress printer.
func (c cli) run(args, set []string) error {
	if len(args) > 1 || (len(args) == 1) == (c.fig != "") {
		return errUsage
	}
	in := input{kind: kindFig}
	if c.fig == "" {
		var err error
		if in, err = readInput(args[0]); err != nil {
			return err
		}
	}
	if err := checkFlags(in.kind, set); err != nil {
		return err
	}
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	if c.server != "" {
		return c.runRemote(ctx, in)
	}
	pool := lab.NewPool(c.parallel)
	defer pool.Close()
	opts := lab.Options{Pool: pool, Context: ctx}
	if c.progress {
		opts.Progress = func(u lab.ProgressUpdate) {
			fmt.Fprintf(os.Stderr, "progress: %d/%d  %-40s load=%.2f seed=%d  %s\n",
				u.Done, u.Total, u.Label, u.Load, u.Seed, outcome(u.Overloaded, u.FromCache))
		}
	}
	switch in.kind {
	case kindFig:
		return c.runFigures(opts)
	case kindStudy:
		_, err := c.runStudy(opts, in.study)
		return err
	default:
		return c.runGrid(opts, in)
	}
}

// outcome describes how a cell ended, for the progress lines.
func outcome(overloaded, fromCache bool) string {
	state := "steady"
	if overloaded {
		state = "overloaded"
	}
	if fromCache {
		return state + " cached"
	}
	return state + " simulated"
}

// printStudyProgress prints one completed study cell, from a local search
// or a physchedd stream (which carries no search phase).
func printStudyProgress(u opt.Progress) {
	fmt.Fprintf(os.Stderr, "progress: %s cell %d/%d  %-50s seed=%d  %s\n",
		cmp.Or(u.Phase, "study"), u.Done, u.Total, u.Label, u.Seed, outcome(u.Overloaded, u.FromCache))
}

// runFigures runs the -fig recipe, or all of them, and prints each one
// followed by a rule. A recipe's output is discarded when the context
// expired while it ran: a cancelled grid leaves never-run cells
// zero-valued, and rendering those would present fabricated data points
// as results.
func (c cli) runFigures(opts lab.Options) error {
	q, ok := map[string]experiments.Quality{"quick": experiments.Quick, "full": experiments.Full}[c.quality]
	if !ok {
		return fmt.Errorf("unknown -quality %q (want quick or full)", c.quality)
	}
	defer experiments.Configure(experiments.Configure(opts))
	ids := []string{c.fig}
	if c.fig == "all" {
		ids = experiments.AllFigureIDs()
	}
	for _, id := range ids {
		out, err := experiments.Render(id, q, c.seed, c.plots)
		if err != nil {
			return err
		}
		if err := opts.Context.Err(); err != nil {
			return fmt.Errorf("%s aborted (%w): partial results discarded", id, err)
		}
		fmt.Println(out.Text)
		if err := writeCSV(c.csvDir, id, out.CSV); err != nil {
			return err
		}
		fmt.Println(strings.Repeat("=", 78))
	}
	return nil
}

// writeCSV writes csv to dir/name.csv when both are non-empty.
func writeCSV(dir, name, csv string) error {
	if dir == "" || csv == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runGrid executes a spec or grid file on the lab pool, backed by
// -cache-dir, and prints its report.
func (c cli) runGrid(opts lab.Options, in input) error {
	lg, err := in.grid.Compile()
	if err != nil {
		return err
	}
	if c.cacheDir != "" {
		cache, err := resultcache.Open(c.cacheDir)
		if err != nil {
			return err
		}
		opts.Cache, opts.Keys = cache, in.grid.Keys()
	}
	opts.KeepCollectors = c.histogram
	var traceFile *os.File
	if c.tracePath != "" {
		if traceFile, err = os.Create(c.tracePath); err != nil {
			return err
		}
		defer traceFile.Close()
		rec := trace.New(1, traceFile) // stream everything, keep memory flat
		opts.Trace = func(lab.Cell) *trace.Recorder { return rec }
	}
	rs, err := lg.Execute(opts)
	if err != nil {
		return fmt.Errorf("%s aborted (%w): partial results discarded", in.path, err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", c.tracePath)
	}
	if in.kind == kindSpec {
		if rs.CacheHits > 0 {
			key, _ := opts.Keys(rs.Cells[0])
			fmt.Fprintf(os.Stderr, "served from cache (hash %s)\n", key)
		}
		res := rs.Results[0]
		report(res, res.Scenario.Params, c.histogram)
		return nil
	}
	hash, err := in.grid.Hash()
	if err != nil {
		return err
	}
	if len(in.grid.Variants) == 0 {
		// The base is the one curve: name it after its policy.
		rs.Labels[0] = in.grid.Base.Policy.Name
	}
	fig := experiments.Figure{
		ID:     "spec",
		Title:  fmt.Sprintf("spec %s (hash %.12s…)", filepath.Base(in.path), hash),
		Loads:  rs.Loads,
		Curves: rs.Curves(),
	}
	out := fig.Render(c.plots)
	fmt.Println(out.Text)
	for vi := 0; len(rs.Seeds) > 1 && vi < len(rs.Labels); vi++ {
		for li, load := range rs.Loads {
			fmt.Printf("%s, load %.2f jobs/hour\n", rs.Labels[vi], load)
			reportReplicas(rs.Aggregate(vi, li), rs.Result(vi, li, 0).Scenario.Params)
			fmt.Println()
		}
	}
	if opts.Cache != nil {
		fmt.Printf("cells %d, served from cache %d\n", len(rs.Results), rs.CacheHits)
	}
	return writeCSV(c.csvDir, fig.ID, out.CSV)
}

// runStudy executes a budgeted scenario search (internal/opt) on the lab
// pool, backed by -cache-dir (in-memory when unset), and prints its
// report.
func (c cli) runStudy(opts lab.Options, st opt.Study) (*opt.Report, error) {
	cache, err := resultcache.Open(c.cacheDir)
	if err != nil {
		return nil, err
	}
	studyOpts := opt.Options{Pool: opts.Pool, Context: opts.Context, Cache: cache}
	if c.progress {
		studyOpts.Progress = printStudyProgress
	}
	report, err := opt.Run(st, studyOpts)
	if err != nil {
		return nil, err
	}
	printStudy(report)
	return report, nil
}

// runRemote runs a spec or study file on a physchedd service through the
// typed client and prints the report a local run prints. The service
// serves cached results without re-simulating, so pointing -server at a
// long-lived daemon makes repeated runs free.
func (c cli) runRemote(ctx context.Context, in input) error {
	cl := client.New(c.server)
	if in.kind == kindStudy {
		var onProgress func(client.ProgressLine)
		if c.progress {
			onProgress = func(p client.ProgressLine) {
				printStudyProgress(opt.Progress{Done: p.Done, Total: p.Total, Label: p.Label,
					Seed: p.Seed, FromCache: p.FromCache, Overloaded: p.Overloaded})
			}
		}
		study, err := cl.RunStudy(ctx, in.body, onProgress)
		if err != nil {
			return err
		}
		printStudy(study.Report)
		return nil
	}
	res, err := cl.RunSpec(ctx, in.body)
	if err != nil {
		return err
	}
	sc, err := in.spec.Scenario() // the report's reference lines need the model parameters
	if err != nil {
		return err
	}
	if res.FromCache {
		fmt.Fprintf(os.Stderr, "served from cache (hash %s)\n", res.Hash)
	}
	report(res.Result, sc.Params, false)
	return nil
}

// printStudy prints a study report, local or remote.
func printStudy(r *opt.Report) {
	fmt.Print(r.Render())
	fmt.Println()
	fmt.Print(r.TrajectoryPlot())
}

// reportReplicas prints the replica aggregate of one grid point.
func reportReplicas(agg lab.Aggregate, params model.Params) {
	fmt.Printf("replicas          %d (%d overloaded)\n", agg.Replicas, agg.Overloaded)
	if agg.Overloaded == agg.Replicas {
		fmt.Printf("state             OVERLOADED in every replica (theoretical max %.2f, farm max %.2f)\n",
			params.MaxTheoreticalLoad(), params.FarmMaxLoad())
		return
	}
	fmt.Printf("avg speedup       %.2f ± %.2f (95%% CI over replicas, std %.2f)\n",
		agg.SpeedupMean, agg.SpeedupCI95, agg.SpeedupStd)
	fmt.Printf("avg waiting       %s ± %s (std %s)\n",
		stats.FormatDuration(agg.WaitingMean), stats.FormatDuration(agg.WaitingCI95),
		stats.FormatDuration(agg.WaitingStd))
	if agg.GoodputMean > 0 || agg.WastedEventsMean > 0 || agg.ReexecutionsMean > 0 {
		fmt.Printf("goodput           %.4f mean (%.0f events wasted, %.1f re-executions per replica)\n",
			agg.GoodputMean, agg.WastedEventsMean, agg.ReexecutionsMean)
	}
}

// report prints one run's metrics.
func report(res lab.Result, params model.Params, histogram bool) {
	fmt.Printf("policy            %s\n", res.PolicyName)
	fmt.Printf("load              %.3f jobs/hour (theoretical max %.2f, farm max %.2f)\n",
		res.Load, params.MaxTheoreticalLoad(), params.FarmMaxLoad())
	if res.Overloaded {
		fmt.Println("state             OVERLOADED (queues grow without bound)")
		return
	}
	fmt.Printf("state             steady (%d jobs measured over %s simulated)\n",
		res.MeasuredJobs, stats.FormatDuration(res.SimTime))
	fmt.Printf("avg speedup       %.2f (max possible %.1f)\n", res.AvgSpeedup, params.MaxSpeedup())
	fmt.Printf("avg waiting       %s\n", stats.FormatDuration(res.AvgWaiting))
	fmt.Printf("p99 waiting       %s\n", stats.FormatDuration(res.P99Waiting))
	fmt.Printf("max waiting       %s\n", stats.FormatDuration(res.MaxWaiting))
	fmt.Printf("avg processing    %s (single-node no-cache reference %s)\n",
		stats.FormatDuration(res.AvgProc), stats.FormatDuration(params.SingleNodeNoCacheTime()))
	st := res.Cluster
	total := st.EventsFromCache + st.EventsFromRemote + st.EventsFromTape
	if total > 0 {
		fmt.Printf("data sources      cache %.1f%%  remote %.1f%%  tape %.1f%%  (replicated %.3f%%)\n",
			pct(st.EventsFromCache, total), pct(st.EventsFromRemote, total),
			pct(st.EventsFromTape, total), pct(st.EventsReplicated, total))
	}
	fmt.Printf("dispatches        %d (%d preemptions)\n", st.Dispatches, st.Preemptions)
	if st.Failures > 0 || st.NodeJoins > 0 {
		fmt.Printf("node churn        %d failures (%d repaired, %d decommissioned, %d joins)\n",
			st.Failures, st.Repairs, st.Decommissions, st.NodeJoins)
		fmt.Printf("goodput           %.4f (%d events wasted, %d subjobs re-executed)\n",
			res.Goodput, st.EventsLost, st.Reexecutions)
	}
	if histogram {
		fmt.Println("\nwaiting-time distribution:")
		fmt.Print(res.Collector.WaitingHistogram().String())
	}
}

func pct(a, b int64) float64 { return 100 * float64(a) / float64(b) }
