package physched

import (
	"os"
	"path/filepath"
	"testing"
)

// reducedParams shrinks the cluster so the facade tests run in
// milliseconds while exercising the full public API surface.
func reducedParams() Params {
	p := PaperCalibrated()
	p.Nodes = 3
	p.MeanJobEvents = 1_000
	p.DataspaceBytes = 60 * GB
	p.CacheBytes = 6 * GB
	return p
}

func TestPublicRun(t *testing.T) {
	p := reducedParams()
	res := Run(Scenario{
		Params:      p,
		NewPolicy:   OutOfOrder,
		Load:        0.4 * p.FarmMaxLoad(),
		Seed:        1,
		WarmupJobs:  20,
		MeasureJobs: 100,
	})
	if res.Overloaded {
		t.Fatal("overloaded at low load")
	}
	if res.MeasuredJobs != 100 || res.AvgSpeedup <= 1 {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestPublicPolicyConstructors(t *testing.T) {
	policies := map[string]func() Policy{
		"farm":                   Farm,
		"splitting":              Splitting,
		"cacheoriented":          CacheOriented,
		"outoforder":             OutOfOrder,
		"outoforder+replication": Replication,
		"delayed":                func() Policy { return Delayed(Hour, 500) },
		"adaptive":               func() Policy { return Adaptive(500) },
	}
	for want, mk := range policies {
		if got := mk().Name(); got != want {
			t.Errorf("policy name = %q, want %q", got, want)
		}
	}
}

func TestPublicSweepAndSustainableLoad(t *testing.T) {
	p := reducedParams()
	s := Scenario{
		Params:      p,
		NewPolicy:   Farm,
		Seed:        5,
		WarmupJobs:  20,
		MeasureJobs: 120,
	}
	loads := []float64{0.5 * p.FarmMaxLoad(), 2 * p.FarmMaxLoad()}
	results := Sweep(s, loads)
	if results[0].Overloaded {
		t.Error("farm overloaded at half its max load")
	}
	if !results[1].Overloaded {
		t.Error("farm sustained double its max load")
	}
	if got := SustainableLoad(s, loads); got != loads[0] {
		t.Errorf("SustainableLoad = %v, want %v", got, loads[0])
	}
}

func TestPaperPresets(t *testing.T) {
	cal := PaperCalibrated()
	if cal.Nodes != 10 || cal.MeanJobEvents != 30_000 {
		t.Errorf("calibrated preset wrong: %+v", cal)
	}
	stated := PaperStated()
	if stated.TapeBytesPerSec != 1_000_000 {
		t.Errorf("stated preset wrong tape throughput: %v", stated.TapeBytesPerSec)
	}
	// Calibration must hit the paper's derived quantities.
	if got := cal.MaxTheoreticalLoad(); got < 3.45 || got > 3.47 {
		t.Errorf("MaxTheoreticalLoad = %v, want 3.46", got)
	}
}

// TestOpenResultCacheErrorIsNil: a cache that cannot be opened comes back
// as a nil interface, so a caller's `cache != nil` check holds.
func TestOpenResultCacheErrorIsNil(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenResultCache(filepath.Join(file, "cache"))
	if err == nil {
		t.Fatal("opened a cache under a regular file")
	}
	if c != nil {
		t.Errorf("error returned a non-nil cache %#v", c)
	}
}
