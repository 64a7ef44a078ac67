package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"physched/internal/cluster"
	"physched/internal/lab"
	"physched/internal/resultcache"
	"physched/internal/spec"
)

// The sweep crosses the nine policies with three loads and two churn
// regimes at one seed per round; a round is one 54-cell grid. The short
// warm-up/measure window keeps cells at 0.3–27 ms.
const (
	sweepWarmup   = 30
	sweepMeasure  = 100
	sweepMinCells = 1000
	sweepSetups   = 5
)

var sweepLoads = []float64{0.8, 1.6, 2.4}

// sweepDigest is the SHA-256 of round 0's encoded results at
// defaultSeed: a change to what the simulator computes fails the check.
const sweepDigest = "424c260e94e0c12a673b386913be82d299ae7840e45cf3d7f57ef3258d7a85da"

// sweepGrid is round r of the sweep for the workload seed.
func sweepGrid(seed int64, round int) spec.Grid {
	churn := spec.Faults{MTBFHours: 150, CacheLoss: true}
	var vs []spec.Variant
	for _, p := range sweepPolicies {
		pol := spec.Policy{Name: p}
		vs = append(vs,
			spec.Variant{Label: p, Policy: &pol},
			spec.Variant{Label: p + "+churn", Policy: &pol, Faults: &churn})
	}
	return spec.Grid{
		Base:     spec.Spec{Policy: spec.Policy{Name: sweepPolicies[0]}, WarmupJobs: sweepWarmup, MeasureJobs: sweepMeasure},
		Variants: vs,
		Loads:    sweepLoads,
		Seeds:    []int64{lab.DeriveSeed(seed, int64(round))},
	}
}

// policyOf strips the churn suffix from a sweep variant label.
func policyOf(label string) string { return strings.TrimSuffix(label, "+churn") }

// sweepRound is one compiled round ready to execute.
type sweepRound struct {
	grid lab.Grid
	keys func(lab.Cell) (string, bool)
}

func compileRound(tr *tracer, cache *timedCache, seed int64, r int) (sweepRound, error) {
	lg, keys, err := compileTimed(tr, sweepGrid(seed, r), func(c lab.Cell, k string) {
		if tr.on.Load() {
			cache.name(k, "sched."+policyOf(c.Label)+".cell")
		}
	})
	return sweepRound{lg, keys}, err
}

// encodeResults is the byte form the output checks compare.
func encodeResults(rs []lab.Result) ([][]byte, error) {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		b, err := json.Marshal(r.Stored())
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func digest(enc [][]byte) string {
	h := sha256.New()
	for _, b := range enc {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runSweep(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	seed := e.cfg.Seed
	timer := newPoolTimer(e.tr)
	cache := newTimedCache(resultcache.NewMemory(), e.tr)

	// Set-up: validate and hash the sweep, compile round 0, and start the
	// worker pool; repeated, with the median reported.
	var setups []float64
	var pool *lab.Pool
	var round0 sweepRound
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		if _, err := sweepGrid(seed, 0).Hash(); err != nil {
			return nil, err
		}
		r0, err := compileRound(e.tr, cache, seed, 0)
		if err != nil {
			return nil, err
		}
		p := lab.NewPool(workers)
		p.SetHooks(timer.hooks())
		setups = append(setups, time.Since(t0).Seconds())
		if pool != nil {
			pool.Close()
		}
		pool, round0 = p, r0
	}
	defer pool.Close()
	out.set("setup_s", median(setups), len(setups))

	var enc0 [][]byte
	var res0 []lab.Result
	round := 0
	// phase runs whole rounds until both budget and minCells are reached
	// and reports cells and wall time.
	phase := func(budget time.Duration, minCells int) (cells int, elapsed time.Duration, err error) {
		start := time.Now()
		for {
			r := round0
			if round > 0 {
				if r, err = compileRound(e.tr, cache, seed, round); err != nil {
					return 0, 0, err
				}
			}
			id := e.tr.newID()
			t0 := time.Now()
			rs, err := r.grid.Execute(lab.Options{Pool: pool, Cache: cache, Keys: r.keys, Context: ctx})
			e.tr.add(id, "lab.execute", 0, strconv.Itoa(round), t0, time.Now())
			if err != nil {
				return 0, 0, err
			}
			if rs.CacheHits != 0 {
				out.fail("round %d: %d cache hits in a cold sweep", round, rs.CacheHits)
			}
			if round == 0 {
				res0 = rs.Results
				if enc0, err = encodeResults(rs.Results); err != nil {
					return 0, 0, err
				}
			}
			round++
			cells += len(rs.Results)
			out.attempted += len(rs.Results)
			if elapsed = time.Since(start); elapsed >= budget && cells >= minCells {
				return cells, elapsed, nil
			}
		}
	}

	budget := time.Duration(e.cfg.Seconds * float64(time.Second))
	tracing := e.cfg.Trace
	if tracing {
		// Untraced first half, traced second half: the overhead row.
		e.tr.on.Store(false)
		cells, el, err := phase(budget/2, sweepMinCells/2)
		if err != nil {
			return nil, err
		}
		untraced := float64(cells) / el.Seconds()
		timer.take()
		e.tr.on.Store(true)
		if cells, el, err = phase(budget/2, sweepMinCells/2); err != nil {
			return nil, err
		}
		traced := float64(cells) / el.Seconds()
		setOverhead(out, untraced, traced)
		_, waits := timer.take()
		sweepPoolLayers(out, e.tr, waits)
		for _, p := range sweepPolicies {
			e.tr.meanSpan(out, "sched."+p+".cell_ms", "sched."+p+".cell", 1)
		}
		e.tr.meanSpan(out, "spec.compile_us", "spec.compile", 1e3)
		e.tr.meanSpan(out, "spec.hash_us", "spec.hash", 1e3)
		e.tr.meanSpan(out, "resultcache.get_us", "resultcache.get", 1e3)
		e.tr.meanSpan(out, "resultcache.put_us", "resultcache.put", 1e3)
		gets, hits := cache.counts()
		out.set("resultcache.hit_frac", float64(hits)/float64(gets), gets)
	} else {
		timer.take() // drop set-up leftovers; the phase starts now
		_, el, err := phase(budget, sweepMinCells)
		if err != nil {
			return nil, err
		}
		runs, _ := timer.take()
		windowedMetrics(out, runs, el)
		rss, err := procStatusKB(0, "VmHWM")
		if err != nil {
			return nil, err
		}
		out.set("peak_rss_mb", rss/1024, 1)
	}

	// Output checks: round 0 re-run serially (with the sim/cluster probe
	// hooked in) must be byte-identical to the timed parallel run, and at
	// the default seed must match the committed digest.
	serial, steps, simNs, err := serialRound0(ctx, seed)
	if err != nil {
		return nil, err
	}
	if e.cfg.BreakCheck {
		serial[0] = append([]byte("x"), serial[0]...)
	}
	for i := range enc0 {
		if !bytes.Equal(enc0[i], serial[i]) {
			out.fail("round 0 cell %d: parallel and serial results differ", i)
			break
		}
	}
	if seed == defaultSeed {
		if got := digest(serial); got != sweepDigest {
			out.fail("round 0 digest %s, committed %s", got, sweepDigest)
		}
	}
	if tracing {
		sweepCountLayers(out, res0, steps, simNs)
	}
	return out, nil
}

// serialRound0 re-executes round 0 on one worker with a Scenario.Hooks
// probe that captures each cell's cluster, and returns the encoded
// results plus per-cell engine steps and simulation wall time.
func serialRound0(ctx context.Context, seed int64) (enc [][]byte, steps []uint64, simNs []int64, err error) {
	lg, err := sweepGrid(seed, 0).Compile()
	if err != nil {
		return nil, nil, nil, err
	}
	var cur *cluster.Cluster
	var began time.Time
	for i := range lg.Variants {
		mutate := lg.Variants[i].Mutate
		lg.Variants[i].Mutate = func(s *lab.Scenario) {
			mutate(s)
			s.Hooks = func(cl *cluster.Cluster) { cur, began = cl, time.Now() }
		}
	}
	rs, err := lg.Execute(lab.Options{Workers: 1, Context: ctx, Progress: func(lab.ProgressUpdate) {
		steps = append(steps, cur.Engine().Steps())
		simNs = append(simNs, time.Since(began).Nanoseconds())
	}})
	if err != nil {
		return nil, nil, nil, err
	}
	enc, err = encodeResults(rs.Results)
	return enc, steps, simNs, err
}

// sweepPoolLayers derives the lab pool metrics of the traced phase from
// its lab.execute (one per round) and lab.task spans.
func sweepPoolLayers(out *outcome, tr *tracer, waits []float64) {
	execs := tr.byName("lab.execute")
	tasks := tr.byName("lab.task")
	var wall, busy, tail float64
	ti := 0
	for _, ex := range execs {
		wall += float64(ex.End - ex.Start)
		// Tasks end in recording order; those inside this round's span
		// belong to it.
		var round []span
		for ti < len(tasks) && tasks[ti].End <= ex.End {
			if tasks[ti].End >= ex.Start {
				round = append(round, tasks[ti])
			}
			ti++
		}
		var lastStart, lastEnd int64
		for _, t := range round {
			busy += float64(t.End - t.Start)
			lastStart = max(lastStart, t.Start)
			lastEnd = max(lastEnd, t.End)
		}
		// Tail: from the last pickup (queue drained) to the round's end,
		// worker time not spent in a task.
		idle := float64(workers) * float64(lastEnd-lastStart)
		for _, t := range round {
			idle -= float64(max(0, t.End-max(t.Start, lastStart)))
		}
		tail += idle
	}
	if len(execs) == 0 || wall == 0 {
		return
	}
	out.set("lab.pool_busy_frac", busy/(float64(workers)*wall), len(tasks))
	out.set("lab.pool_wait_ms", mean(waits), len(waits))
	out.set("lab.tail_idle_ms", tail/float64(len(execs))/1e6, len(execs))
}

// sweepCountLayers sets the exact per-cell counts of round 0: engine
// steps and their cost from the serial probe, cluster and cache counts
// from the results.
func sweepCountLayers(out *outcome, res []lab.Result, steps []uint64, simNs []int64) {
	var nSteps, ns float64
	for i := range steps {
		nSteps += float64(steps[i])
		ns += float64(simNs[i])
	}
	n := len(res)
	out.set("sim.events_per_cell", nSteps/float64(n), n)
	out.set("sim.ns_per_event", ns/nSteps, n)
	var disp, pre, lost, fromCache, all float64
	churnCells := 0
	for _, r := range res {
		st := r.Cluster
		disp += float64(st.Dispatches)
		pre += float64(st.Preemptions)
		fromCache += float64(st.EventsFromCache)
		all += float64(st.EventsFromCache + st.EventsFromRemote + st.EventsFromTape)
		if r.Scenario.Faults.Enabled() {
			lost += float64(st.EventsLost)
			churnCells++
		}
	}
	out.set("cluster.dispatches_per_cell", disp/float64(n), n)
	out.set("cluster.preemptions_per_cell", pre/float64(n), n)
	if churnCells > 0 {
		out.set("cluster.events_lost_per_cell", lost/float64(churnCells), churnCells)
	}
	out.set("cache.hit_frac", fromCache/all, n)
}

// setOverhead reports the tracing overhead row.
func setOverhead(out *outcome, untraced, traced float64) {
	out.set("trace.untraced_ops_per_s", untraced, 1)
	out.set("trace.traced_ops_per_s", traced, 1)
	out.set("trace.overhead_frac", 1-traced/untraced, 1)
}
