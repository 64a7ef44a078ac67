package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden wire-format files")

// TestJobWireFormatGolden pins the job wire format byte-for-byte.
// Regenerate deliberately with -update when the format changes on
// purpose.
func TestJobWireFormatGolden(t *testing.T) {
	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	finished := created.Add(90 * time.Second)

	status := jobStatus{
		ID: "cafebabe12345678", Kind: "grid", Hash: "a1b2",
		State: "done", Done: 8, Total: 8, CacheHits: 3,
		Created: created, AgeSec: 120, Finished: &finished,
	}
	submitted := jobSubmitted{
		JobID: "cafebabe12345678", Hash: "a1b2",
		StatusURL: "/v1/jobs/cafebabe12345678",
		StreamURL: "/v1/jobs/cafebabe12345678/stream",
	}

	for _, tc := range []struct {
		golden string
		v      any
	}{
		{"job_status.golden.json", status},
		{"job_submitted.golden.json", submitted},
	} {
		got, err := json.MarshalIndent(tc.v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the pinned wire format:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}
