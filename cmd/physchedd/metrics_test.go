package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"physched/internal/lab"
	"physched/internal/resultcache"
)

// metricValue extracts one sample value from a Prometheus text body.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric sample %q not found in:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q value %q: %v", sample, m[1], err)
	}
	return v
}

// TestMetricsEndpoint scrapes /metrics after one grid run and checks the
// counter families reflect the work: pool tasks completed, cache misses
// then hits, job states, and the text exposition content type.
func TestMetricsEndpoint(t *testing.T) {
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := epoch
	pool := lab.NewPool(2)
	t.Cleanup(pool.Close)
	s := mustServer(t, serverConfig{
		Cache:    resultcache.NewMemory(),
		Pool:     pool,
		MaxCells: 100,
		Clock:    func() time.Time { return now },
	})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics Content-Type %q, want text/plain", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Before any work: zero-filled families are all present.
	body := scrape()
	for _, family := range []string{
		"physchedd_pool_workers", "physchedd_pool_busy", "physchedd_pool_utilization",
		"physchedd_pool_tasks_total", "physchedd_cells_per_second", "physchedd_inflight",
		"physchedd_cache_gets_total", "physchedd_cache_puts_total", "physchedd_cache_corrupt_total",
		"physchedd_jobs", "physchedd_jobs_evicted_total",
		"physchedd_study_reports", "physchedd_study_reports_evicted_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("family %q missing from first scrape", family)
		}
	}
	if got := metricValue(t, body, "physchedd_pool_workers"); got != 2 {
		t.Errorf("pool workers %v, want 2", got)
	}
	if got := metricValue(t, body, "physchedd_pool_tasks_total"); got != 0 {
		t.Errorf("tasks before any run: %v", got)
	}

	// One 8-cell grid: 8 pool tasks, 8 result-cache misses then puts.
	_, result := postGrid(t, ts, gridBody)
	total := float64(len(result.Cells))
	now = epoch.Add(4 * time.Second)
	body = scrape()
	if got := metricValue(t, body, "physchedd_pool_tasks_total"); got != total {
		t.Errorf("pool tasks %v, want %v", got, total)
	}
	if got := metricValue(t, body, `physchedd_cache_gets_total{kind="result",outcome="miss"}`); got != total {
		t.Errorf("cache misses %v, want %v", got, total)
	}
	if got := metricValue(t, body, `physchedd_cache_puts_total{kind="result"}`); got != total {
		t.Errorf("cache puts %v, want %v", got, total)
	}
	// Lifetime rate on the fake clock: 8 cells / 4 seconds.
	if got := metricValue(t, body, "physchedd_cells_per_second"); got != total/4 {
		t.Errorf("cells per second %v, want %v", got, total/4)
	}

	// Re-POST: every cell hits the cache (cache lookups happen inside the
	// pool task, so the task counter grows; the put counter does not).
	postGrid(t, ts, gridBody)
	body = scrape()
	if got := metricValue(t, body, `physchedd_cache_gets_total{kind="result",outcome="hit"}`); got != total {
		t.Errorf("cache hits %v, want %v", got, total)
	}
	if got := metricValue(t, body, `physchedd_cache_puts_total{kind="result"}`); got != total {
		t.Errorf("cached re-run wrote the cache: puts %v, want %v", got, total)
	}

	// Async job lifecycle shows up in the jobs gauge.
	sub := postAsync(t, ts, smallGridBody(950))
	waitDone(t, ts, sub.JobID)
	body = scrape()
	if got := metricValue(t, body, `physchedd_jobs{state="done"}`); got != 1 {
		t.Errorf("done jobs %v, want 1", got)
	}
	if got := metricValue(t, body, `physchedd_jobs{state="running"}`); got != 0 {
		t.Errorf("running jobs %v, want 0", got)
	}
}
