package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"physched/client"
)

// TestErrorEnvelopeEverywhere walks every handler's failure paths and
// pins the acceptance criterion of the error-format sweep: each error
// response is JSON, carries exactly the {"error": {"code", "message"}}
// envelope, and maps its status onto the stable code vocabulary.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	ts := testServer(t)
	missing := strings.Repeat("0", 64)
	tooLarge := strings.Repeat(" ", maxRequestBody+1)

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"policies bad page", "GET", "/v1/policies?page=0", "", 400, client.CodeBadRequest},
		{"policies bad page_size", "GET", "/v1/policies?page_size=100000", "", 400, client.CodeBadRequest},
		{"workloads bad page", "GET", "/v1/workloads?page=x", "", 400, client.CodeBadRequest},
		{"spec malformed", "POST", "/v1/specs", `{not json`, 400, client.CodeBadRequest},
		{"spec invalid", "POST", "/v1/specs", `{"policy": {"name": "farm"}, "load_jobs_per_hour": -1}`, 422, client.CodeInvalidSpec},
		{"grid malformed", "POST", "/v1/grids", `{not json`, 400, client.CodeBadRequest},
		{"grid unknown policy", "POST", "/v1/grids", `{"base": {"policy": {"name": "nope"}, "load_jobs_per_hour": 1}}`, 422, client.CodeInvalidSpec},
		{"study malformed", "POST", "/v1/studies", `{not json`, 400, client.CodeBadRequest},
		{"study over budget", "POST", "/v1/studies",
			strings.Replace(studyBody, `"budget_cells": 12`, `"budget_cells": 5000`, 1), 422, client.CodeInvalidSpec},
		{"study trace sync", "POST", "/v1/studies?trace=1", studyBody, 400, client.CodeBadRequest},
		{"study trace async", "POST", "/v1/studies?async=1&trace=1", studyBody, 400, client.CodeBadRequest},
		{"study list bad page", "GET", "/v1/studies?page=-1", "", 400, client.CodeBadRequest},
		{"study report unknown", "GET", "/v1/studies/" + missing, "", 404, client.CodeNotFound},
		{"jobs bad state filter", "GET", "/v1/jobs?state=bogus", "", 400, client.CodeBadRequest},
		{"jobs bad kind filter", "GET", "/v1/jobs?kind=bogus", "", 400, client.CodeBadRequest},
		{"jobs bad page", "GET", "/v1/jobs?page=0", "", 400, client.CodeBadRequest},
		{"job unknown", "GET", "/v1/jobs/deadbeefdeadbeef", "", 404, client.CodeNotFound},
		{"job cancel unknown", "DELETE", "/v1/jobs/deadbeefdeadbeef", "", 404, client.CodeNotFound},
		{"job stream unknown", "GET", "/v1/jobs/deadbeefdeadbeef/stream", "", 404, client.CodeNotFound},
		{"result unknown", "GET", "/v1/results/" + missing, "", 404, client.CodeNotFound},
		{"aggregate unknown", "GET", "/v1/aggregates/" + missing, "", 404, client.CodeNotFound},
		{"spec too large", "POST", "/v1/specs", tooLarge, 413, client.CodeTooLarge},
		{"grid too large", "POST", "/v1/grids", tooLarge, 413, client.CodeTooLarge},
		{"study too large", "POST", "/v1/studies", tooLarge, 413, client.CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bodyReader io.Reader
			if tc.body != "" {
				bodyReader = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bodyReader)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			// The body is exactly the envelope: one top-level "error" key.
			var top map[string]json.RawMessage
			if err := json.Unmarshal(raw, &top); err != nil {
				t.Fatalf("error body is not JSON: %q", raw)
			}
			if len(top) != 1 || top["error"] == nil {
				t.Fatalf("body is not the bare envelope: %s", raw)
			}
			var env client.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("envelope has an empty message")
			}
		})
	}
}

// TestConflictUsesEnvelope pins the 409 path: cancelling a finished job
// answers with the conflict code in the shared envelope.
func TestConflictUsesEnvelope(t *testing.T) {
	ts := testServer(t)
	sub := postAsync(t, ts, smallGridBody(900))
	waitDone(t, ts, sub.JobID)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != client.CodeConflict || env.Error.Message == "" {
		t.Errorf("envelope %+v, want code %q", env, client.CodeConflict)
	}
}
