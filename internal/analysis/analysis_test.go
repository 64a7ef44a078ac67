package analysis

import (
	"strings"
	"testing"

	"physched/internal/analysis/driver"
)

// TestFixtures runs each analyzer over its positive+negative fixture
// package and matches diagnostics against the // want expectations.
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *driver.Analyzer
		fixture  string
	}{
		{DetRand, "detrand"},
		{WallTime, "walltime"},
		{MapOrder, "maporder"},
		{Directive, "directive"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel()
			problems, err := RunFixture(tc.analyzer, tc.fixture)
			if err != nil {
				t.Fatalf("RunFixture(%s): %v", tc.fixture, err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestRepoIsLintClean is the in-test twin of the CI lint job: the whole
// module must pass the rule-scoped suite. Reverting any fixed finding
// (or dropping a //physched: suppression) fails this test, not just the
// separate CI step.
func TestRepoIsLintClean(t *testing.T) {
	diags, err := Lint("../..", "./...")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// asSimCore scopes every package as if it sat in the sim core, where
// Rules registers the whole suite. Fixtures live outside the determinism
// boundary, so plain Rules would run only the directive check on them.
func asSimCore(*driver.Package) []*driver.Analyzer {
	return Rules(&driver.Package{PkgPath: "physched/internal/sim"})
}

// lintFixture runs the suite over one fixture package, scoped as sim
// core.
func lintFixture(t *testing.T, fixture string, opts ...driver.RunOption) []driver.Diagnostic {
	t.Helper()
	pkgs, err := driver.Load(".", "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	diags, err := driver.Run(pkgs, asSimCore, opts...)
	if err != nil {
		t.Fatalf("run %s: %v", fixture, err)
	}
	return diags
}

// TestSabotagedPackageFails proves the suite actually bites: the
// sabotage fixture must produce a finding from every analyzer Rules
// registers for a sim-core package.
func TestSabotagedPackageFails(t *testing.T) {
	diags := lintFixture(t, "sabotage")
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for _, a := range Analyzers() {
		if !seen[a.Name] {
			t.Errorf("no finding from %s on the sabotaged package; got %v", a.Name, diags)
		}
	}
}

// TestRulesScoping pins the analyzer-to-package wiring: the sim core
// runs the whole suite, the service layer only its clock and rand
// discipline, and the annotation check runs everywhere.
func TestRulesScoping(t *testing.T) {
	names := func(pkgPath string) map[string]bool {
		out := map[string]bool{}
		for _, a := range Rules(&driver.Package{PkgPath: pkgPath}) {
			out[a.Name] = true
		}
		return out
	}
	sim := names("physched/internal/sim")
	for _, a := range Analyzers() {
		if !sim[a.Name] {
			t.Errorf("internal/sim missing analyzer %s", a.Name)
		}
	}
	daemon := names("physched/cmd/physchedd")
	if !daemon["walltime"] || !daemon["detrand"] {
		t.Error("cmd/physchedd must run walltime and detrand (clock/rand discipline)")
	}
	if daemon["maporder"] {
		t.Error("cmd/physchedd is service-layer: maporder not registered")
	}
	lint := names("physched/internal/analysis")
	if lint["walltime"] || lint["detrand"] || lint["maporder"] {
		t.Error("the linter itself is outside the determinism boundary")
	}
	if !lint["physcheddirective"] {
		t.Error("the directive grammar is checked in every package")
	}
	if !IsDeterministic("physched") || !IsDeterministic("physched/internal/lab") {
		t.Error("root facade and lab are inside the determinism boundary")
	}
	if IsDeterministic("physched/internal/analysis/testdata/src/detrand") {
		t.Error("fixture packages must not match the boundary by prefix")
	}
}

// TestWantMachinery guards the fixture matcher itself: a fixture with a
// stale want must fail, not silently pass.
func TestWantMachinery(t *testing.T) {
	problems, err := RunFixture(WallTime, "detrand")
	if err != nil {
		t.Fatalf("RunFixture: %v", err)
	}
	// The detrand fixture's wants mention global rand; walltime reports
	// none of them but does flag the time.Now inside the seed expression.
	if len(problems) == 0 {
		t.Fatal("mismatched analyzer/fixture pair should produce problems")
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "no diagnostic matched want") {
		t.Errorf("expected unmatched wants, got:\n%s", joined)
	}
}
