package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"physched/client"
)

// server is one physchedd child with its own fresh cache and state
// directories, reached through the typed client over at most `workers`
// connections.
type server struct {
	child    *child
	cl       *client.Client
	hc       *http.Client
	dir      string
	cacheDir string
	stateDir string
}

// bootServer starts physchedd on a reserved port and waits for /healthz.
// A port lost to a race is retried. The default -max-jobs (64) stays:
// each client streams its job right after submitting it, long before 64
// newer jobs could evict it, and bounded retention keeps the server's
// memory independent of the run's throughput.
func bootServer(ctx context.Context, e *env) (*server, error) {
	dir, err := os.MkdirTemp(e.tmp, "physchedd-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, cacheDir: filepath.Join(dir, "cache"), stateDir: filepath.Join(dir, "state")}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		c, err := e.reaper.start(e.cfg.Physchedd, []string{
			"-addr", addr,
			"-cache-dir", s.cacheDir,
			"-state-dir", s.stateDir,
			"-parallel", strconv.Itoa(workers),
			"-drain-timeout", drainTimeout.String(),
		}, filepath.Join(dir, fmt.Sprintf("physchedd-%d.log", attempt)))
		if err != nil {
			return nil, err
		}
		s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
		s.cl = client.New("http://"+addr, client.WithHTTPClient(s.hc))
		lastErr = c.waitHealthy(ctx, s.cl.Health, 20*time.Second)
		if lastErr == nil {
			s.child = c
			return s, nil
		}
		if err := c.stop(); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// shutdown stops the child (SIGTERM, drain, SIGKILL fallback, reap,
// gone-check) and removes its directories.
func (s *server) shutdown() error {
	s.hc.CloseIdleConnections()
	err := s.child.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// snapshot is the server-side state the per-layer deltas come from.
type snapshot struct {
	pm         *client.ParsedMetrics
	cpuSec     float64
	stateBytes int64
	stateFiles int
}

func (s *server) snap(ctx context.Context) (snapshot, error) {
	text, err := s.cl.Metrics(ctx)
	if err != nil {
		return snapshot{}, err
	}
	pm, err := client.ParseMetrics(text)
	if err != nil {
		return snapshot{}, err
	}
	cpu, err := procCPUSeconds(s.child.pid)
	if err != nil {
		return snapshot{}, err
	}
	sb, sf, err := dirBytes(s.stateDir)
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{pm: pm, cpuSec: cpu, stateBytes: sb, stateFiles: sf}, nil
}

// peakRSSMB is the child's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	kb, err := procStatusKB(s.child.pid, "VmHWM")
	return kb / 1024, err
}

// histDelta is one histogram series' growth between two snapshots.
type histDelta struct {
	count, sum float64
	bounds     []float64 // sorted upper bounds, +Inf last
	cum        []float64 // cumulative count growth per bound
}

func deltaHist(a, b snapshot, name string, labels map[string]string) histDelta {
	hb, ok := b.pm.HistogramAt(name, labels)
	if !ok {
		return histDelta{}
	}
	ha, _ := a.pm.HistogramAt(name, labels) // absent before: all zero
	d := histDelta{count: hb.Count - ha.Count, sum: hb.Sum - ha.Sum}
	for le := range hb.Buckets {
		v, err := strconv.ParseFloat(le, 64) // "+Inf" parses to +Inf
		if err == nil {
			d.bounds = append(d.bounds, v)
		}
	}
	sort.Float64s(d.bounds)
	for _, v := range d.bounds {
		le := strconv.FormatFloat(v, 'g', -1, 64)
		if math.IsInf(v, 1) {
			le = "+Inf"
		}
		d.cum = append(d.cum, hb.Buckets[le]-ha.Buckets[le])
	}
	return d
}

// meanMs is the mean observation in ms.
func (d histDelta) meanMs() float64 { return d.sum / d.count * 1e3 }

// quantileMs interpolates the q-quantile, in ms, inside its bucket.
func (d histDelta) quantileMs(q float64) float64 {
	target := q * d.count
	lo, prev := 0.0, 0.0
	for i, up := range d.bounds {
		if d.cum[i] >= target {
			if math.IsInf(up, 1) {
				return lo * 1e3
			}
			frac := 0.0
			if d.cum[i] > prev {
				frac = (target - prev) / (d.cum[i] - prev)
			}
			return (lo + frac*(up-lo)) * 1e3
		}
		lo, prev = up, d.cum[i]
	}
	return lo * 1e3
}

// setHistMean sets metric to the mean of a histogram delta, if any.
func setHistMean(out *outcome, metric string, d histDelta) {
	if d.count > 0 {
		out.set(metric, d.meanMs(), int(d.count))
	}
}

// serverLayers sets the per-layer metrics read from the server between
// two snapshots spanning jobs jobs, and the journal size per job from
// the second.
func serverLayers(out *outcome, a, b snapshot, jobs int) {
	route := func(r, status string) map[string]string { return map[string]string{"route": r, "status": status} }
	const httpHist = "physchedd_http_request_duration_seconds"
	setHistMean(out, "http.post_grids_ms", deltaHist(a, b, httpHist, route("POST /v1/grids", "202")))
	setHistMean(out, "http.job_stream_ms", deltaHist(a, b, httpHist, route("GET /v1/jobs/{id}/stream", "200")))
	setHistMean(out, "http.get_result_ms", deltaHist(a, b, httpHist, route("GET /v1/results/{hash}", "200")))
	qw := deltaHist(a, b, "physchedd_pool_queue_wait_seconds", nil)
	if qw.count > 0 {
		out.set("lab.queue_wait_ms", qw.meanMs(), int(qw.count))
		out.set("lab.queue_wait_p99_ms", qw.quantileMs(0.99), int(qw.count))
	}
	setHistMean(out, "lab.cell_exec_ms", deltaHist(a, b, "physchedd_cell_duration_seconds", nil))

	counter := func(s snapshot, labels map[string]string) float64 {
		v, _ := s.pm.Value("physchedd_cache_gets_total", labels)
		return v
	}
	hit := map[string]string{"kind": "result", "outcome": "hit"}
	miss := map[string]string{"kind": "result", "outcome": "miss"}
	hits := counter(b, hit) - counter(a, hit)
	gets := hits + counter(b, miss) - counter(a, miss)
	if gets > 0 {
		out.set("resultcache.hit_frac", hits/gets, int(gets))
	}
	if jobs > 0 {
		out.set("server.cpu_ms_per_job", (b.cpuSec-a.cpuSec)*1e3/float64(jobs), jobs)
	}
	// One journal file per retained job (older ones may be evicted).
	if b.stateFiles > 0 {
		out.set("journal.bytes_per_job", float64(b.stateBytes)/float64(b.stateFiles), b.stateFiles)
	}
}
