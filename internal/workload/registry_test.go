package workload

import (
	"fmt"
	"testing"

	"physched/internal/model"
)

func testArgs() Args {
	return Args{Params: model.PaperCalibrated(), Seed: 1, JobsPerHour: 1.5}
}

func TestResolveBuiltins(t *testing.T) {
	for _, name := range []string{"", "poisson", "daynight"} {
		src, err := Resolve(name, testArgs())
		if err != nil {
			t.Errorf("Resolve(%q): %v", name, err)
			continue
		}
		j := src.Next()
		if j == nil || j.Arrival < 0 || j.Range.Len() <= 0 {
			t.Errorf("Resolve(%q) produced a bad first job: %+v", name, j)
		}
	}
}

func TestResolveEmptyNameIsPoisson(t *testing.T) {
	a, err := Resolve("", testArgs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve("poisson", testArgs())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ja, jb := a.Next(), b.Next()
		if ja.Arrival != jb.Arrival || ja.Range != jb.Range {
			t.Fatalf("job %d diverged: %+v vs %+v", i, ja, jb)
		}
	}
}

func TestResolveUnknownKind(t *testing.T) {
	if _, err := Resolve("bogus", testArgs()); err == nil {
		t.Error("unknown workload kind accepted")
	}
}

// TestResolveValidatesArgs requires Resolve to reject exactly the
// invalid arguments of each built-in kind, and Check to return exactly
// Resolve's error, over invalid and valid arguments alike, so spec
// validation (which calls Check) and compilation (which calls Resolve)
// cannot drift apart.
func TestResolveValidatesArgs(t *testing.T) {
	p := model.PaperCalibrated()
	cases := []struct {
		name    string
		args    Args
		wantErr bool
	}{
		{"poisson", Args{Params: p}, true},                                                    // zero rate
		{"poisson", Args{Params: p, JobsPerHour: -1}, true},                                   // negative rate
		{"poisson", Args{Params: p, JobsPerHour: 1, Swing: 0.5}, true},                        // dead swing
		{"poisson", Args{Params: p, JobsPerHour: 1, PeakJobsPerHour: 2}, true},                // dead peak
		{"poisson", Args{Params: p, JobsPerHour: 1}, false},                                   // valid
		{"", Args{Params: p, JobsPerHour: 1, Swing: 0.5}, true},                               // empty name is poisson
		{"", Args{Params: p, JobsPerHour: 1}, false},                                          // valid
		{"daynight", Args{Params: p}, true},                                                   // zero rate
		{"daynight", Args{Params: p, JobsPerHour: -2, Swing: 0.5}, true},                      // negative rate
		{"daynight", Args{Params: p, JobsPerHour: 1, Swing: 1}, true},                         // swing at 1
		{"daynight", Args{Params: p, JobsPerHour: 1, Swing: 1.5}, true},                       // swing above 1
		{"daynight", Args{Params: p, JobsPerHour: 1, Swing: -0.1}, true},                      // negative swing
		{"daynight", Args{Params: p, JobsPerHour: 2, PeakJobsPerHour: 1}, true},               // peak below mean
		{"daynight", Args{Params: p, JobsPerHour: 2, Swing: 0.5, PeakJobsPerHour: 2.9}, true}, // peak below own peak
		{"daynight", Args{Params: p, JobsPerHour: 2, Swing: 0.5, PeakJobsPerHour: 3}, false},  // peak at own peak
		{"daynight", Args{Params: p, JobsPerHour: 2, Swing: 0.5}, false},                      // valid
		{"daynight", Args{Params: p, JobsPerHour: 2}, false},                                  // valid
		{"bogus", Args{Params: p, JobsPerHour: 1}, true},                                      // unknown kind
	}
	for i, tc := range cases {
		checkErr := Check(tc.name, tc.args)
		src, resolveErr := Resolve(tc.name, tc.args)
		if (checkErr != nil) != tc.wantErr {
			t.Errorf("case %d (%q %+v): Check error %v, want error %v", i, tc.name, tc.args, checkErr, tc.wantErr)
		}
		if fmt.Sprint(checkErr) != fmt.Sprint(resolveErr) {
			t.Errorf("case %d (%q): Check error %q, Resolve error %q", i, tc.name, checkErr, resolveErr)
		}
		if (src == nil) != (resolveErr != nil) {
			t.Errorf("case %d (%q): Resolve returned source %v with error %v", i, tc.name, src, resolveErr)
		}
		if g, ok := src.(*Generator); ok {
			g.Release()
		}
	}
}
