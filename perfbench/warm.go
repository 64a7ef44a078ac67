package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"physched/client"
	"physched/internal/lab"
	"physched/internal/resultcache"
	"physched/internal/spec"
)

// service-warm: a fixed set of 8 grids × 12 cells, all simulated during
// set-up, then resubmitted by `workers` closed-loop clients.
const (
	warmGrids  = 8
	warmSeeds  = 4
	warmSetups = 5
)

var warmLoads = []float64{0.8, 1.6, 2.4}

func warmGrid(seed int64, i int) spec.Grid {
	return spec.Grid{
		Base:  spec.Spec{Policy: spec.Policy{Name: sweepPolicies[i%len(sweepPolicies)]}, WarmupJobs: 20, MeasureJobs: 60},
		Loads: warmLoads,
		Seeds: lab.Seeds(lab.DeriveSeed(seed, 1000+int64(i)), warmSeeds),
	}
}

// warmSet is the fixed grid set: request bodies, compiled grids, and
// the expected cell keys and (after set-up) cold result bytes.
type warmSet struct {
	bodies [][]byte
	grids  []lab.Grid
	keys   [][]string
	cold   [][][]byte // [grid][cell] encoded result from the cold pass
}

func newWarmSet(tr *tracer, seed int64) (*warmSet, error) {
	ws := &warmSet{}
	for i := 0; i < warmGrids; i++ {
		g := warmGrid(seed, i)
		body, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		lg, keyFn, err := compileTimed(tr, g, nil)
		if err != nil {
			return nil, err
		}
		var keys []string
		for _, c := range lg.Cells() {
			k, ok := keyFn(c)
			if !ok {
				return nil, fmt.Errorf("warm grid %d: cell without key", i)
			}
			keys = append(keys, k)
		}
		ws.bodies = append(ws.bodies, body)
		ws.grids = append(ws.grids, lg)
		ws.keys = append(ws.keys, keys)
	}
	return ws, nil
}

// checkLine compares a grid's result line with the expected keys, the
// expected cache hits and (when cold is set) the cold bytes; it returns
// the encoded cells.
func (ws *warmSet) checkLine(i int, line *client.ResultLine, wantHits int) ([][]byte, error) {
	if line == nil {
		return nil, fmt.Errorf("grid %d: no result line", i)
	}
	if line.CacheHits != wantHits || len(line.Cells) != len(ws.keys[i]) {
		return nil, fmt.Errorf("grid %d: cache_hits %d of %d cells, want %d of %d",
			i, line.CacheHits, len(line.Cells), wantHits, len(ws.keys[i]))
	}
	enc := make([][]byte, len(line.Cells))
	for j, c := range line.Cells {
		if c.Hash != ws.keys[i][j] {
			return nil, fmt.Errorf("grid %d cell %d: hash %s, want %s", i, j, c.Hash, ws.keys[i][j])
		}
		b, err := json.Marshal(c.Result)
		if err != nil {
			return nil, err
		}
		if ws.cold != nil && !bytes.Equal(b, ws.cold[i][j]) {
			return nil, fmt.Errorf("grid %d cell %d: result differs from the cold pass", i, j)
		}
		enc[j] = b
	}
	return enc, nil
}

// fill runs the cold pass: every grid submitted async and streamed to
// its result line, all cells simulated.
func (ws *warmSet) fill(ctx context.Context, s *server) ([][][]byte, error) {
	ids := make([]string, len(ws.bodies))
	for i, body := range ws.bodies {
		sub, err := s.cl.SubmitGrid(ctx, body)
		if err != nil {
			return nil, fmt.Errorf("fill grid %d: %w", i, err)
		}
		ids[i] = sub.JobID
	}
	cold := make([][][]byte, len(ids))
	for i, id := range ids {
		line, _, err := s.cl.StreamJob(ctx, id, nil)
		if err != nil {
			return nil, fmt.Errorf("fill grid %d: %w", i, err)
		}
		if cold[i], err = ws.checkLine(i, line, 0); err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
	}
	return cold, nil
}

// warmTally is one closed-loop phase's accounting.
type warmTally struct {
	mu       sync.Mutex
	lat      []opSample // result-line arrival, submit → result line
	ops      int
	failed   int
	problems []string
}

func (t *warmTally) add(op opSample, failed bool, problem error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if failed {
		t.failed++
	} else {
		t.lat = append(t.lat, op)
	}
	if problem != nil && len(t.problems) < 5 {
		t.problems = append(t.problems, problem.Error())
	}
}

// warmOp is one job: async submit → stream to the result line → one
// GET /v1/results/{hash}. It reports when the result line arrived
// (relative to start) and the latency to it, whether the op failed, and
// any output-check failure.
func warmOp(ctx context.Context, tr *tracer, s *server, ws *warmSet, start time.Time, gi, ci int) (opSample, bool, error) {
	op := tr.newID()
	t0 := time.Now()
	sub, err := s.cl.SubmitGrid(ctx, ws.bodies[gi])
	t1 := time.Now()
	tr.add(0, "client.submit", op, sub.JobID, t0, t1)
	if err != nil {
		return opSample{}, true, nil
	}
	line, _, err := s.cl.StreamJob(ctx, sub.JobID, nil)
	t2 := time.Now()
	tr.add(0, "client.stream", op, sub.JobID, t1, t2)
	if err != nil {
		return opSample{}, true, nil
	}
	lat := opSample{t2.Sub(start), float64(t2.Sub(t0).Nanoseconds()) / 1e6}
	if _, err := ws.checkLine(gi, line, len(ws.keys[gi])); err != nil {
		return lat, false, err
	}
	res, err := s.cl.Result(ctx, ws.keys[gi][ci])
	t3 := time.Now()
	tr.add(0, "client.result", op, sub.JobID, t2, t3)
	tr.add(op, "warm.job", 0, sub.JobID, t0, t3)
	if err != nil {
		return lat, true, nil
	}
	b, err := json.Marshal(res.Result)
	if err != nil {
		return lat, false, err
	}
	if !res.FromCache || !bytes.Equal(b, ws.cold[gi][ci]) {
		return lat, false, fmt.Errorf("GET /v1/results grid %d cell %d: not the cold result", gi, ci)
	}
	return lat, false, nil
}

// warmPhase runs `workers` closed-loop clients until budget elapses and
// returns the tally and the wall time.
func warmPhase(ctx context.Context, tr *tracer, s *server, ws *warmSet, seed int64, phase int, budget time.Duration) (*warmTally, time.Duration) {
	t := &warmTally{}
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Each client stops at the deadline or on cancellation.
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(lab.DeriveSeed(seed, 2000, int64(phase), int64(w))))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				gi := rng.Intn(len(ws.bodies))
				ci := rng.Intn(len(ws.keys[gi]))
				lat, failed, problem := warmOp(ctx, tr, s, ws, start, gi, ci)
				if ctx.Err() != nil {
					return
				}
				t.add(lat, failed, problem)
			}
		}(w)
	}
	wg.Wait()
	return t, time.Since(start)
}

func runServiceWarm(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	seed := e.cfg.Seed
	ws, err := newWarmSet(e.tr, seed)
	if err != nil {
		return nil, err
	}

	// Set-up, repeated on fresh servers: boot to /healthz, then the cold
	// pass. Every repetition must produce the same cold bytes.
	var setups []float64
	var s *server
	for i := 0; i < warmSetups; i++ {
		t0 := time.Now()
		srv, err := bootServer(ctx, e)
		if err != nil {
			return nil, err
		}
		cold, err := ws.fill(ctx, srv)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ws.cold != nil {
			for gi := range cold {
				for ci := range cold[gi] {
					if !bytes.Equal(cold[gi][ci], ws.cold[gi][ci]) {
						out.fail("cold pass %d grid %d cell %d differs from pass 0", i, gi, ci)
					}
				}
			}
		}
		ws.cold = cold
		if s != nil {
			if err := s.shutdown(); err != nil {
				return nil, err
			}
		}
		s = srv
	}
	out.set("setup_s", median(setups), len(setups))
	cacheBytes, _, err := dirBytes(s.cacheDir)
	if err != nil {
		return nil, err
	}
	if e.cfg.BreakCheck {
		ws.cold[0][0] = append([]byte("x"), ws.cold[0][0]...)
	}

	budget := time.Duration(e.cfg.Seconds * float64(time.Second))
	tally := func(t *warmTally) {
		out.attempted += t.ops
		out.failed += t.failed
		for _, p := range t.problems {
			out.fail("%s", p)
		}
	}
	if e.cfg.Trace {
		e.tr.on.Store(false)
		t, el := warmPhase(ctx, e.tr, s, ws, seed, 0, budget/2)
		tally(t)
		untraced := float64(t.ops) / el.Seconds()
		before, err := s.snap(ctx)
		if err != nil {
			return nil, err
		}
		e.tr.on.Store(true)
		t, el = warmPhase(ctx, e.tr, s, ws, seed, 1, budget/2)
		tally(t)
		after, err := s.snap(ctx)
		if err != nil {
			return nil, err
		}
		setOverhead(out, untraced, float64(t.ops)/el.Seconds())
		serverLayers(out, before, after, t.ops)
		e.tr.meanSpan(out, "client.submit_ms", "client.submit", 1)
		e.tr.meanSpan(out, "client.stream_ms", "client.stream", 1)
		e.tr.meanSpan(out, "client.result_ms", "client.result", 1)
		e.tr.meanSpan(out, "spec.compile_us", "spec.compile", 1e3)
		e.tr.meanSpan(out, "spec.hash_us", "spec.hash", 1e3)
		cells := warmGrids * len(warmLoads) * warmSeeds
		out.set("resultcache.disk_bytes_per_cell", float64(cacheBytes)/float64(cells), cells)
	} else {
		t, el := warmPhase(ctx, e.tr, s, ws, seed, 0, budget)
		tally(t)
		windowedMetrics(out, t.lat, el)
		rss, err := s.peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.set("peak_rss_mb", rss, 1)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// The server's disk cache, read in-process through the same
	// Grid.Execute path, must serve every cell with the cold bytes.
	if err := warmDiskCheck(ctx, e.tr, s, ws, out); err != nil {
		return nil, err
	}
	return out, s.shutdown()
}

// warmDiskCheck executes every warm grid in-process against the child's
// cache directory through a timed cache wrapper: all hits, same bytes.
func warmDiskCheck(ctx context.Context, tr *tracer, s *server, ws *warmSet, out *outcome) error {
	store, err := resultcache.Open(s.cacheDir)
	if err != nil {
		return err
	}
	cache := newTimedCache(store, tr)
	pool := lab.NewPool(workers)
	defer pool.Close()
	for i := range ws.grids {
		keys := ws.keys[i]
		rs, err := ws.grids[i].Execute(lab.Options{Pool: pool, Context: ctx, Cache: cache,
			Keys: func(c lab.Cell) (string, bool) {
				return keys[(c.Variant*len(warmLoads)+c.LoadIdx)*warmSeeds+c.SeedIdx], true
			}})
		if err != nil {
			return err
		}
		if rs.CacheHits != len(keys) {
			out.fail("disk cache: grid %d served %d of %d cells", i, rs.CacheHits, len(keys))
			continue
		}
		enc, err := encodeResults(rs.Results)
		if err != nil {
			return err
		}
		for j := range enc {
			if !bytes.Equal(enc[j], ws.cold[i][j]) {
				out.fail("disk cache: grid %d cell %d differs from the cold pass", i, j)
				break
			}
		}
	}
	tr.meanSpan(out, "resultcache.get_us", "resultcache.get", 1e3)
	return nil
}
