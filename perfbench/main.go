// Command perfbench is physched's end-to-end benchmark. One invocation
// runs one named workload for a fixed wall-clock budget, checks that the
// program's outputs are correct, and prints every metric by name, unit
// and sample count; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Workloads (see README.md for the metric→layer map):
//
//	sweep         in-process cold-cache policy sweep through spec → lab
//	service-warm  closed loop against a physchedd child, every cell a hit
//
// With --trace 1 the run also records spans around the benchmark's own
// calls into each layer, writes them to .bench_build/spans/, and prints
// the per-layer metrics instead of the end-to-end ones.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	perfbench --physchedd BIN --workload NAME [--seed N] [--seconds S] [--trace 0|1]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the benchmark's concurrency bound: pool workers, clients
// and connections never exceed it, so a 2-CPU sandbox runs every
// workload without oversubscription.
const workers = 2

// defaultSeed is the seed whose sweep digest is committed (sweepDigest).
const defaultSeed = 1

// buildDir holds everything a run leaves behind: binaries, the Go build
// cache, per-run temp dirs and span files. It is relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// metricDef names one reported metric. The lists below are the contract
// BENCHMARK.json repeats; TestBenchmarkJSONMatches keeps them in step.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// sweepPolicies are the nine registered policies the sweep crosses; the
// list is fixed so registering a new policy does not change the workload.
var sweepPolicies = []string{
	"farm", "splitting", "cacheoriented", "outoforder", "replication",
	"delayed", "adaptive", "partitioned", "affinefarm",
}

var perLayer = func() []metricDef {
	var ds []metricDef
	for _, p := range sweepPolicies {
		ds = append(ds, metricDef{"sched." + p + ".cell_ms", "ms", "lower"})
	}
	return append(ds, []metricDef{
		{"sim.events_per_cell", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"cluster.dispatches_per_cell", "count", "lower"},
		{"cluster.preemptions_per_cell", "count", "lower"},
		{"cluster.events_lost_per_cell", "count", "lower"},
		{"cache.hit_frac", "fraction", "higher"},
		{"lab.pool_busy_frac", "fraction", "higher"},
		{"lab.pool_wait_ms", "ms", "lower"},
		{"lab.tail_idle_ms", "ms", "lower"},
		{"lab.queue_wait_ms", "ms", "lower"},
		{"lab.queue_wait_p99_ms", "ms", "lower"},
		{"lab.cell_exec_ms", "ms", "lower"},
		{"spec.compile_us", "us", "lower"},
		{"spec.hash_us", "us", "lower"},
		{"resultcache.get_us", "us", "lower"},
		{"resultcache.put_us", "us", "lower"},
		{"resultcache.hit_frac", "fraction", "higher"},
		{"resultcache.disk_bytes_per_cell", "bytes", "lower"},
		{"http.post_grids_ms", "ms", "lower"},
		{"http.job_stream_ms", "ms", "lower"},
		{"http.get_result_ms", "ms", "lower"},
		{"server.cpu_ms_per_job", "ms", "lower"},
		{"journal.bytes_per_job", "bytes", "lower"},
		{"client.submit_ms", "ms", "lower"},
		{"client.stream_ms", "ms", "lower"},
		{"client.result_ms", "ms", "lower"},
		{"trace.untraced_ops_per_s", "1/s", "higher"},
		{"trace.traced_ops_per_s", "1/s", "higher"},
		{"trace.overhead_frac", "fraction", "lower"},
	}...)
}()

// config is one invocation's settings.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Physchedd string // prebuilt physchedd binary (service workloads)
	// BreakCheck corrupts one expected output so the output check fails;
	// used to prove the failure path reaps its children.
	BreakCheck bool
}

// sample is one measured value with the number of observations behind it.
type sample struct {
	Value float64
	N     int
}

// outcome is what a workload reports.
type outcome struct {
	metrics   map[string]sample
	attempted int
	failed    int
	problems  []string // failed output checks
}

func newOutcome() *outcome { return &outcome{metrics: map[string]sample{}} }

func (o *outcome) set(name string, v float64, n int) { o.metrics[name] = sample{v, n} }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload runs one named traffic mix. env carries everything a run
// shares; the workload owns its own children through env.reaper.
type workload func(ctx context.Context, env *env) (*outcome, error)

var workloads = map[string]workload{
	"sweep":        runSweep,
	"service-warm": runServiceWarm,
}

// env is the per-invocation context a workload runs in.
type env struct {
	cfg    config
	tr     *tracer
	reaper *reaper
	tmp    string // fresh run directory, removed at exit
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: sweep or service-warm")
	fs.Int64Var(&cfg.Seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured wall-clock budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.Physchedd, "physchedd", filepath.Join(buildDir, "bin", "physchedd"), "prebuilt physchedd binary")
	fs.BoolVar(&cfg.BreakCheck, "break-check", false, "corrupt one expected output (exercises the failure path)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = traceFlag != 0
	wl, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|service-warm and --seconds > 0\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A reader that goes away must not kill the process mid-run (Go exits
	// on SIGPIPE from stdout) and skip the cleanup below; writes fail
	// instead.
	signal.Ignore(syscall.SIGPIPE)
	e := &env{cfg: cfg, tr: newTracer(cfg.Trace), reaper: &reaper{}}
	// Every exit path — return, failed check, panic, signal — reaps the
	// children before the process goes; Pdeathsig is only the backstop
	// for exits that skip deferred calls.
	defer func() {
		p := recover()
		if err := e.reaper.stopAll(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			code = 1
		}
		if e.tmp != "" {
			os.RemoveAll(e.tmp)
			// Flush this run's writes and deletions now rather than
			// during the next run's measurement.
			syscall.Sync()
		}
		if p != nil {
			panic(p)
		}
	}()

	if err := os.MkdirAll(filepath.Join(buildDir, "runs"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "runs"), cfg.Workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e.tmp = tmp
	// Start from a clean page cache: dirty data left by earlier
	// processes would otherwise be written back while this run measures.
	syscall.Sync()

	out, err := wl(ctx, e)
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 130
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := e.reaper.stopAll(); err != nil {
		out.fail("child shutdown: %v", err)
	}
	if cfg.Trace {
		path, err := e.tr.write(cfg.Workload, cfg.Seed)
		if err != nil {
			out.fail("span file: %v", err)
		} else {
			fmt.Fprintf(stdout, "spans: %s (%d spans)\n", path, e.tr.len())
		}
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if err := report(stdout, cfg, defs, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(out.problems) > 0 {
		for _, p := range out.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the metric table (with sample counts; a metric whose
// layer the workload does not exercise reads n/a and reports 0) and then
// the result object as the last line.
func report(w io.Writer, cfg config, defs []metricDef, out *outcome) error {
	res := resultJSON{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v: attempted %d failed %d checks %s\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, out.attempted, out.failed, checkWord(out))
	fmt.Fprintf(w, "%-32s %14s %-8s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		s, ok := out.metrics[d.Name]
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %-8s %s\n", d.Name, "n/a", d.Unit, "0 (layer not exercised by this workload)")
		} else {
			fmt.Fprintf(w, "%-32s %14.4f %-8s %d\n", d.Name, s.Value, d.Unit, s.N)
		}
		res.Metrics[d.Name] = metricJSON{Value: s.Value, Unit: d.Unit}
	}
	if !cfg.Trace && out.metrics["ops_per_s"].N == 0 {
		return errors.New("no timed operations")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func checkWord(out *outcome) string {
	if len(out.problems) == 0 {
		return "ok"
	}
	return "FAILED: " + strings.Join(out.problems, "; ")
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of a small set of repeated set-up timings.
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// opSample is one timed op: when it completed, relative to the start of
// the measured phase, and its latency in ms.
type opSample struct {
	at  time.Duration
	lat float64
}

// window is the length of the windows the end-to-end throughput and
// latency metrics are computed over.
const window = 5 * time.Second

// windowedMetrics sets ops_per_s, p50_ms and p99_ms to the medians, over
// the phase's whole windows, of each window's throughput and latency
// percentiles. Host steal on a small VM arrives in bursts of 10–20 s; the
// median window reports a run's typical behaviour instead of how many
// bursts it happened to overlap. Ops completing after the last whole
// window are not counted.
func windowedMetrics(out *outcome, ops []opSample, elapsed time.Duration) {
	w := min(window, elapsed) // a phase shorter than a window is one window
	n := int(elapsed / w)
	lats := make([][]float64, n)
	counted := 0
	for _, o := range ops {
		if i := int(o.at / w); i < n {
			lats[i] = append(lats[i], o.lat)
			counted++
		}
	}
	var rates, p50s, p99s []float64
	for _, l := range lats {
		rates = append(rates, float64(len(l))/w.Seconds())
		p50s = append(p50s, quantile(l, 0.50))
		p99s = append(p99s, quantile(l, 0.99))
	}
	out.set("ops_per_s", median(rates), counted)
	out.set("p50_ms", median(p50s), counted)
	out.set("p99_ms", median(p99s), counted)
}
