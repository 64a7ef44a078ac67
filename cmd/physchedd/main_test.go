package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"physched/client"
	"physched/internal/lab"
	"physched/internal/resultcache"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return testServerWith(t, serverConfig{Cache: resultcache.NewMemory(), MaxCells: 100})
}

// testServerWith starts a service over cfg, closing the pool and the
// listener with the test.
func testServerWith(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = lab.NewPool(0)
	}
	t.Cleanup(cfg.Pool.Close)
	ts := httptest.NewServer(mustServer(t, cfg).routes())
	t.Cleanup(ts.Close)
	return ts
}

// mustServer builds a server over cfg, failing the test on a config
// error (a state dir that cannot be created, a corrupt journal load).
func mustServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const gridBody = `{
	"base": {
		"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
		"policy": {"name": "outoforder"},
		"load_jobs_per_hour": 1.0,
		"seed": 5,
		"warmup_jobs": 10,
		"measure_jobs": 40
	},
	"variants": [
		{"label": "ooo"},
		{"label": "farm", "policy": {"name": "farm"}}
	],
	"loads": [0.8, 1.1],
	"seeds": [1, 2]
}`

// postGrid POSTs a grid spec and splits the NDJSON stream into progress
// lines and the terminating result line.
func postGrid(t *testing.T, ts *httptest.Server, body string) (progress []progressLine, result resultLine) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawResult := false
	for sc.Scan() {
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch kind.Type {
		case "progress":
			var p progressLine
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			progress = append(progress, p)
		case "result":
			if err := json.Unmarshal(sc.Bytes(), &result); err != nil {
				t.Fatal(err)
			}
			sawResult = true
		default:
			t.Fatalf("unexpected line type %q", kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawResult {
		t.Fatal("stream ended without a result line")
	}
	return progress, result
}

// TestGridStreamAndCacheRoundTrip is the service acceptance test: POST a
// grid spec, read streamed progress then the result; POST the same spec
// again and observe zero re-simulated cells with byte-identical results.
func TestGridStreamAndCacheRoundTrip(t *testing.T) {
	ts := testServer(t)

	progress, result := postGrid(t, ts, gridBody)
	const total = 2 * 2 * 2 // variants × loads × seeds
	if len(progress) != total {
		t.Errorf("got %d progress lines, want %d", len(progress), total)
	}
	if last := progress[len(progress)-1]; last.Done != total || last.Total != total {
		t.Errorf("final progress %d/%d, want %d/%d", last.Done, last.Total, total, total)
	}
	if result.GridHash == "" || len(result.Cells) != total {
		t.Fatalf("bad result line: hash=%q cells=%d", result.GridHash, len(result.Cells))
	}
	if result.CacheHits != 0 {
		t.Errorf("first run reported %d cache hits", result.CacheHits)
	}
	if len(result.Aggregates) != 2*2 {
		t.Errorf("got %d aggregates, want 4", len(result.Aggregates))
	}
	for _, c := range result.Cells {
		if len(c.Hash) != 64 {
			t.Errorf("cell hash %q is not a SHA-256", c.Hash)
		}
	}

	progress2, result2 := postGrid(t, ts, gridBody)
	if result2.CacheHits != total {
		t.Errorf("second run re-simulated %d of %d cells; want zero", total-result2.CacheHits, total)
	}
	for _, p := range progress2 {
		if !p.FromCache {
			t.Errorf("second run streamed a non-cache progress line: %+v", p)
		}
	}
	a, _ := json.Marshal(result.Cells)
	b, _ := json.Marshal(result2.Cells)
	if !bytes.Equal(a, b) {
		t.Errorf("cached grid results diverged:\n%s\n%s", b, a)
	}
	if result.GridHash != result2.GridHash {
		t.Errorf("grid hash unstable: %q vs %q", result.GridHash, result2.GridHash)
	}
}

func TestResultsServedByHash(t *testing.T) {
	ts := testServer(t)
	_, result := postGrid(t, ts, gridBody)

	cell := result.Cells[0]
	resp, err := http.Get(ts.URL + "/v1/results/" + cell.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got specResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.FromCache || got.Hash != cell.Hash {
		t.Errorf("bad by-hash response: %+v", got)
	}
	a, _ := json.Marshal(cell.Result)
	b, _ := json.Marshal(got.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("by-hash result differs from streamed result:\n%s\n%s", b, a)
	}

	agg := result.Aggregates[0]
	aresp, err := http.Get(ts.URL + "/v1/aggregates/" + agg.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Errorf("aggregate status %d", aresp.StatusCode)
	}

	miss, err := http.Get(ts.URL + "/v1/results/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	defer miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("miss status %d, want 404", miss.StatusCode)
	}
}

func TestSingleSpecRunAndCache(t *testing.T) {
	ts := testServer(t)
	body := `{
		"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
		"policy": {"name": "farm"},
		"load_jobs_per_hour": 0.7,
		"seed": 3,
		"warmup_jobs": 10,
		"measure_jobs": 30
	}`
	post := func() specResponse {
		resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out specResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := post()
	if first.FromCache || first.Hash == "" || first.Result.PolicyName != "farm" {
		t.Errorf("bad first response: %+v", first)
	}
	second := post()
	if !second.FromCache {
		t.Error("second identical spec was re-simulated")
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("cached spec result diverged:\n%s\n%s", b, a)
	}
}

func TestRejectsInvalidSpecs(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/grids", `{not json`, http.StatusBadRequest},
		{"/v1/grids", `{"bogus": 1}`, http.StatusBadRequest},
		{"/v1/grids", `{"base": {"policy": {"name": "nope"}, "load_jobs_per_hour": 1}}`, http.StatusUnprocessableEntity},
		{"/v1/specs", `{"policy": {"name": "farm"}, "load_jobs_per_hour": -1}`, http.StatusUnprocessableEntity},
		{"/v1/specs", `{not json`, http.StatusBadRequest},
	}
	for i, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out client.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("case %d: status %d, want %d", i, resp.StatusCode, tc.status)
		}
		if out.Error.Code == "" || out.Error.Message == "" {
			t.Errorf("case %d: incomplete error envelope: %+v", i, out)
		}
	}
}

func TestRejectsOversizedGrids(t *testing.T) {
	ts := testServerWith(t, serverConfig{Cache: resultcache.NewMemory(), MaxCells: 3})
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(gridBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422 for an 8-cell grid with a 3-cell limit", resp.StatusCode)
	}
}

// TestCellCapCheckedBeforeEnumeration: an 8 KB body declaring 1000
// loads × 1000 seeds is rejected against -max-cells from its axis
// lengths alone. Enumerating the million cells before the check
// allocated hundreds of megabytes on the way to the same 422.
func TestCellCapCheckedBeforeEnumeration(t *testing.T) {
	loads := make([]string, 1000)
	seeds := make([]string, 1000)
	for i := range loads {
		loads[i] = strconv.Itoa(i + 1)
		seeds[i] = strconv.Itoa(i + 1)
	}
	body := `{"base": {"policy": {"name": "outoforder"}, "load_jobs_per_hour": 1},
		"loads": [` + strings.Join(loads, ",") + `], "seeds": [` + strings.Join(seeds, ",") + `]}`
	pool := lab.NewPool(1)
	t.Cleanup(pool.Close)
	s := mustServer(t, serverConfig{Cache: resultcache.NewMemory(), Pool: pool, MaxCells: 10})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, status, err := s.planGrid(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if status != http.StatusUnprocessableEntity || err == nil || !strings.Contains(err.Error(), "1000000 cells") {
		t.Fatalf("status %d, err %v; want 422 naming the 1000000-cell product", status, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("rejecting an oversized grid allocated %d MB, want under 8 MB", alloc>>20)
	}
}

func TestRegistryEndpointsAndHealth(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct{ path, key, want string }{
		{"/v1/policies", "policies", "outoforder"},
		{"/v1/workloads", "workloads", "daynight"},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		if err := json.Unmarshal(out[tc.key], &names); err != nil {
			t.Fatalf("%s: %q is not a string list: %v", tc.path, tc.key, err)
		}
		found := false
		for _, n := range names {
			if n == tc.want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing %q: %v", tc.path, tc.want, names)
		}
		if string(out["page"]) != "1" {
			t.Errorf("%s missing pagination trailer: %v", tc.path, out)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestDiskBackedServiceSharesCacheAcrossRestarts: a second service
// instance over the same cache directory serves the first instance's
// results without re-simulating.
func TestDiskBackedServiceSharesCacheAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	open := func() *httptest.Server {
		cache, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(mustServer(t, serverConfig{Cache: cache, MaxCells: 100}).routes())
	}
	ts1 := open()
	_, first := postGrid(t, ts1, gridBody)
	ts1.Close()

	ts2 := open()
	defer ts2.Close()
	_, second := postGrid(t, ts2, gridBody)
	if second.CacheHits != len(second.Cells) {
		t.Errorf("restarted service re-simulated %d of %d cells",
			len(second.Cells)-second.CacheHits, len(second.Cells))
	}
	a, _ := json.Marshal(first.Cells)
	b, _ := json.Marshal(second.Cells)
	if !bytes.Equal(a, b) {
		t.Errorf("results diverged across restart:\n%s\n%s", b, a)
	}
}

// TestSpecCacheHitMissBodiesIdentical pins the satellite fix: the body of
// a cache hit and a cache miss of the same spec are byte-identical apart
// from the from_cache marker — the miss path responds with the stored
// copy, so nothing the first caller sees can be absent for later ones.
func TestSpecCacheHitMissBodiesIdentical(t *testing.T) {
	ts := testServer(t)
	body := `{
		"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
		"policy": {"name": "outoforder"},
		"load_jobs_per_hour": 0.6,
		"seed": 9,
		"warmup_jobs": 10,
		"measure_jobs": 30
	}`
	post := func() []byte {
		resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	miss, hit := post(), post()
	if !bytes.Contains(miss, []byte(`"from_cache":false`)) {
		t.Fatalf("first POST not marked as a miss: %s", miss)
	}
	if !bytes.Contains(hit, []byte(`"from_cache":true`)) {
		t.Fatalf("second POST not marked as a hit: %s", hit)
	}
	normalised := bytes.Replace(miss, []byte(`"from_cache":false`), []byte(`"from_cache":true`), 1)
	if !bytes.Equal(normalised, hit) {
		t.Errorf("hit and miss bodies differ beyond from_cache:\nmiss: %s\nhit:  %s", miss, hit)
	}
}
