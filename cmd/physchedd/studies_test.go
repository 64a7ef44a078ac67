package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"physched/internal/resultcache"
)

// studyBody is a fast study over the tiny test cluster: 2 policies × 2
// cache sizes, successive halving with a 12-cell budget.
const studyBody = `{
	"base": {
		"params": {"nodes": 3, "cache_gb": 6, "mean_job_events": 1000, "dataspace_gb": 60},
		"policy": {"name": "outoforder"},
		"load_jobs_per_hour": 1.0,
		"seed": 5,
		"warmup_jobs": 10,
		"measure_jobs": 40
	},
	"axes": [
		{"name": "policy", "values": ["outoforder", "farm"]},
		{"name": "cache_gb", "min": 6, "max": 24, "steps": 2}
	],
	"objective": {"metric": "mean_speedup"},
	"search": {"algorithm": "halving", "budget_cells": 12, "replications": 2, "seed": 3}
}`

// postStudy POSTs a study spec and splits the NDJSON stream into progress
// lines and the terminating study line.
func postStudy(t *testing.T, ts *httptest.Server, body string) (progress []progressLine, study studyLine) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(body))
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
	sawStudy := false
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
		case "study":
			if err := json.Unmarshal(sc.Bytes(), &study); err != nil {
				t.Fatal(err)
			}
			sawStudy = true
		default:
			t.Fatalf("unexpected line type %q", kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawStudy {
		t.Fatal("stream ended without a study line")
	}
	return progress, study
}

// TestStudyStreamAndCacheRoundTrip is the study acceptance test: POST a
// study, read streamed progress then the report; fetch the report by
// hash; POST the same study again and observe zero re-simulated cells
// with identical findings.
func TestStudyStreamAndCacheRoundTrip(t *testing.T) {
	ts := testServer(t)

	progress, study := postStudy(t, ts, studyBody)
	if len(progress) == 0 {
		t.Error("no progress lines streamed")
	}
	rep := study.Report
	if rep == nil || study.StudyHash == "" || len(study.StudyHash) != 64 {
		t.Fatalf("bad study line: %+v", study)
	}
	if rep.StudyHash != study.StudyHash || rep.Algorithm != "halving" {
		t.Errorf("report identity mismatch: %+v", rep)
	}
	if rep.EvaluatedCells == 0 || rep.EvaluatedCells > rep.Budget {
		t.Errorf("budget accounting wrong: %d of %d", rep.EvaluatedCells, rep.Budget)
	}
	if rep.Best == nil || rep.Best.SpecHash == "" {
		t.Fatalf("no winner: %+v", rep)
	}

	// The report is addressable by study hash.
	resp, err := http.Get(ts.URL + "/v1/studies/" + study.StudyHash)
	if err != nil {
		t.Fatal(err)
	}
	var fetched studyLine
	err = json.NewDecoder(resp.Body).Decode(&fetched)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch by hash: status %d, err %v", resp.StatusCode, err)
	}
	a, _ := json.Marshal(study.Report)
	b, _ := json.Marshal(fetched.Report)
	if !bytes.Equal(a, b) {
		t.Errorf("fetched report differs from streamed report:\n%s\n%s", a, b)
	}

	// Re-POSTing the study hits the content cache for every cell.
	_, second := postStudy(t, ts, studyBody)
	if second.Report.SimulatedCells != 0 {
		t.Errorf("re-POSTed study re-simulated %d cells", second.Report.SimulatedCells)
	}
	if second.Report.EvaluatedCells != rep.EvaluatedCells {
		t.Errorf("warm re-POST charged %d cells, cold charged %d", second.Report.EvaluatedCells, rep.EvaluatedCells)
	}
	la, _ := json.Marshal(rep.Leaderboard)
	lb, _ := json.Marshal(second.Report.Leaderboard)
	if !bytes.Equal(la, lb) {
		t.Errorf("warm-cache leaderboard diverged:\n%s\n%s", la, lb)
	}

	// Unknown study hashes 404.
	miss, err := http.Get(ts.URL + "/v1/studies/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("unknown study hash: status %d, want 404", miss.StatusCode)
	}
}

// TestAsyncStudyJob: a study submitted with ?async=1 runs as a job with
// kind "study", its stream replays progress plus the study line, and the
// report lands in the by-hash store.
func TestAsyncStudyJob(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/studies?async=1", "application/json", strings.NewReader(studyBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", resp.StatusCode)
	}
	var sub jobSubmitted
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, ts, sub.JobID)
	if st.State != string(jobDone) || st.Kind != "study" || st.Hash != sub.Hash {
		t.Fatalf("finished study job status %+v", st)
	}

	// The replayed stream ends with the study line.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var study studyLine
	if err := json.Unmarshal(last, &study); err != nil || study.Type != "study" {
		t.Fatalf("stream did not end with a study line: %q (%v)", last, err)
	}
	if study.Report == nil || study.StudyHash != sub.Hash {
		t.Fatalf("bad replayed study line: %+v", study)
	}

	report, err := http.Get(ts.URL + "/v1/studies/" + sub.Hash)
	if err != nil {
		t.Fatal(err)
	}
	report.Body.Close()
	if report.StatusCode != http.StatusOK {
		t.Errorf("async study report not retrievable by hash: status %d", report.StatusCode)
	}
}

func TestRejectsInvalidStudies(t *testing.T) {
	ts := testServerWith(t, serverConfig{Cache: resultcache.NewMemory(), MaxCells: 100})
	cases := []struct {
		body   string
		status int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"bogus": 1}`, http.StatusBadRequest},
		{`{"base": {"policy": {"name": "outoforder"}, "load_jobs_per_hour": 1},
		   "axes": [{"name": "nope", "min": 1, "max": 2, "steps": 2}],
		   "objective": {"metric": "mean_speedup"},
		   "search": {"budget_cells": 4}}`, http.StatusUnprocessableEntity},
		// Budget beyond -max-cells is rejected upfront.
		{strings.Replace(studyBody, `"budget_cells": 12`, `"budget_cells": 5000`, 1), http.StatusUnprocessableEntity},
	}
	for i, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("case %d: status %d, want %d", i, resp.StatusCode, tc.status)
		}
		if out["error"] == "" {
			t.Errorf("case %d: no error message", i)
		}
	}
}
