package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"physched/internal/lab"
	"physched/internal/resultcache"
)

// gaugedStore wraps a store and gauges how many simulation cells are
// executing at once: grid execution calls Get right before simulating a
// cell (miss) and Put right after, so the miss→Put window brackets the
// run. The small sleep widens the window so oversubscription cannot
// slip through between samples.
type gaugedStore struct {
	*resultcache.Store
	mu        sync.Mutex
	cur, peak int
}

func (g *gaugedStore) Get(key string) (lab.Result, bool) {
	r, ok := g.Store.Get(key)
	if !ok {
		g.mu.Lock()
		g.cur++
		if g.cur > g.peak {
			g.peak = g.cur
		}
		g.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	return r, ok
}

func (g *gaugedStore) Put(key string, r lab.Result) {
	g.Store.Put(key, r)
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

// smallGridBody is a distinct 8-cell grid per seed offset, so concurrent
// requests share no cached cells.
func smallGridBody(seedBase int64) string {
	return fmt.Sprintf(`{
		"base": {
			"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
			"policy": {"name": "outoforder"},
			"load_jobs_per_hour": 1.0,
			"seed": %d,
			"warmup_jobs": 5,
			"measure_jobs": 20
		},
		"variants": [
			{"label": "ooo"},
			{"label": "farm", "policy": {"name": "farm"}}
		],
		"loads": [0.8, 1.1],
		"seeds": [%d, %d]
	}`, seedBase, seedBase, seedBase+1)
}

// TestConcurrentGridsShareOnePool is the oversubscription regression
// test: with the server's pool bounded at N workers, several grids
// POSTed concurrently never have more than N simulation cells executing
// at once. Against per-request pools (each request spawning its own N
// workers) this fails with a peak of requests×N.
func TestConcurrentGridsShareOnePool(t *testing.T) {
	const workers = 2
	const requests = 4
	gauge := &gaugedStore{Store: resultcache.NewMemory()}
	ts := testServerWith(t, serverConfig{
		Cache:    gauge,
		Pool:     lab.NewPool(workers),
		MaxCells: 100,
	})

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/grids", "application/json",
				strings.NewReader(smallGridBody(int64(100+10*i))))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			// Drain the stream so the server finishes the request.
			buf := make([]byte, 1<<16)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					break
				}
			}
		}(i)
	}
	wg.Wait()

	gauge.mu.Lock()
	peak, cur := gauge.peak, gauge.cur
	gauge.mu.Unlock()
	if peak > workers {
		t.Errorf("observed %d simulation cells executing at once across concurrent requests; the shared pool allows %d", peak, workers)
	}
	if cur != 0 {
		t.Errorf("gauge left at %d after all requests finished", cur)
	}
	if peak == 0 {
		t.Error("gauge never saw a running cell — instrumentation broken")
	}
}
