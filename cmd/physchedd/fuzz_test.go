package main

import (
	"os"
	"path/filepath"
	"testing"

	"physched/internal/lab"
	"physched/internal/resultcache"
)

// FuzzPlanSubmission feeds arbitrary request bodies to the planning step
// of every submission kind: planSpec for POST /v1/specs, planSubmission
// for grids and studies. No body may panic, and every rejection must
// carry a 4xx status — a 5xx would blame the server for the client's
// bytes. A body that plans is not run; a spec that validates is also
// compiled, the next step its handler takes. The corpus is the example
// files of examples/specfile, each offered to every kind.
func FuzzPlanSubmission(f *testing.F) {
	pool := lab.NewPool(1)
	f.Cleanup(pool.Close)
	s := mustServer(f, serverConfig{Cache: resultcache.NewMemory(), Pool: pool, MaxCells: 100})
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "specfile", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example files to seed the corpus (err %v)", err)
	}
	for _, name := range examples {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(kind, false, data)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, traced bool, body []byte) {
		var status int
		var err error
		switch kind % 3 {
		case 0:
			sp, _, st, perr := planSpec(body)
			if status, err = st, perr; err == nil {
				sp.Scenario() // the handler answers 422 on error; only a panic matters here
			}
		case 1:
			_, status, err = s.planSubmission("grid", body, traced)
		case 2:
			_, status, err = s.planSubmission("study", body, traced)
		}
		if err != nil && (status < 400 || status > 499) {
			t.Errorf("kind %d rejected with status %d, want 4xx: %v", kind%3, status, err)
		}
	})
}
