package main

import (
	"sync"
	"time"

	"physched/internal/lab"
	"physched/internal/spec"
)

// timedCache wraps the lab.ResultCache handed to Grid.Execute and, while
// tracing, records a span per Get and Put and counts gets and hits. A Get that misses is followed, on the
// same worker, by the cell's simulation and then its Put, so the gap
// between the two is the cell's simulation span, named by cellName.
type timedCache struct {
	inner lab.ResultCache
	tr    *tracer

	mu       sync.Mutex
	missAt   map[string]time.Time
	cellName map[string]string // key → span name of its simulation
	gets     int
	hits     int
}

func newTimedCache(inner lab.ResultCache, tr *tracer) *timedCache {
	return &timedCache{inner: inner, tr: tr, missAt: map[string]time.Time{}, cellName: map[string]string{}}
}

// name labels key's simulation span (e.g. "sched.farm.cell").
func (c *timedCache) name(key, span string) {
	c.mu.Lock()
	c.cellName[key] = span
	c.mu.Unlock()
}

func (c *timedCache) Get(key string) (lab.Result, bool) {
	if !c.tr.on.Load() {
		return c.inner.Get(key)
	}
	t0 := time.Now()
	r, ok := c.inner.Get(key)
	t1 := time.Now()
	c.tr.add(0, "resultcache.get", 0, key, t0, t1)
	c.mu.Lock()
	c.gets++
	if ok {
		c.hits++
	} else {
		c.missAt[key] = t1
	}
	c.mu.Unlock()
	return r, ok
}

func (c *timedCache) Put(key string, r lab.Result) {
	if !c.tr.on.Load() {
		c.inner.Put(key, r)
		return
	}
	t0 := time.Now()
	c.mu.Lock()
	start, ok := c.missAt[key]
	delete(c.missAt, key)
	name := c.cellName[key]
	c.mu.Unlock()
	if ok && name != "" {
		c.tr.add(0, name, 0, key, start, t0)
	}
	c.inner.Put(key, r)
	c.tr.add(0, "resultcache.put", 0, key, t0, time.Now())
}

// counts returns the traced Get and hit totals.
func (c *timedCache) counts() (gets, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets, c.hits
}

// compileTimed compiles g under a spec.compile span and returns its
// Keys function wrapped so every cell hash is a spec.hash span. onKey,
// when non-nil, sees each cell with its key.
func compileTimed(tr *tracer, g spec.Grid, onKey func(lab.Cell, string)) (lab.Grid, func(lab.Cell) (string, bool), error) {
	t0 := time.Now()
	lg, err := g.Compile()
	tr.add(0, "spec.compile", 0, "", t0, time.Now())
	if err != nil {
		return lab.Grid{}, nil, err
	}
	keys := g.Keys()
	return lg, func(c lab.Cell) (string, bool) {
		t0 := time.Now()
		k, ok := keys(c)
		tr.add(0, "spec.hash", 0, k, t0, time.Now())
		if ok && onKey != nil {
			onKey(c, k)
		}
		return k, ok
	}, nil
}

// poolTimer is the lab.PoolHooks the benchmark installs, as physchedd
// does in production: per-task queue wait and run time, plus a lab.task
// span per task when tracing.
type poolTimer struct {
	base time.Time
	tr   *tracer

	mu    sync.Mutex
	start time.Time  // start of the current phase
	runs  []opSample // task end relative to start, run time in ms
	waits []float64  // ms
}

func newPoolTimer(tr *tracer) *poolTimer {
	now := time.Now()
	return &poolTimer{base: now, start: now, tr: tr}
}

func (p *poolTimer) hooks() *lab.PoolHooks {
	return &lab.PoolHooks{
		Now: func() int64 { return time.Since(p.base).Nanoseconds() },
		Wait: func(ns int64) {
			p.mu.Lock()
			p.waits = append(p.waits, float64(ns)/1e6)
			p.mu.Unlock()
		},
		Run: func(ns int64) {
			end := time.Now()
			p.mu.Lock()
			p.runs = append(p.runs, opSample{end.Sub(p.start), float64(ns) / 1e6})
			p.mu.Unlock()
			p.tr.add(0, "lab.task", 0, "", end.Add(-time.Duration(ns)), end)
		},
	}
}

// take returns and clears the recorded run and wait times, and starts
// the next phase now.
func (p *poolTimer) take() (runs []opSample, waits []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	runs, waits = p.runs, p.waits
	p.runs, p.waits, p.start = nil, nil, time.Now()
	return runs, waits
}
