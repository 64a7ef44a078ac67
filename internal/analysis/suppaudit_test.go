package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"physched/internal/analysis/driver"
)

// suppressionVerbByAnalyzer maps each analyzer that honours in-source
// suppressions to its directive verb. Analyzers absent here (detrand,
// physcheddirective) have no escape hatch by design.
var suppressionVerbByAnalyzer = func() map[string]string {
	m := map[string]string{}
	for verb, analyzer := range directiveSpecs {
		m[analyzer] = verb
	}
	return m
}()

// TestSuppressionsAreLoadBearing audits every //physched: suppression in
// the module, in both directions:
//
//   - every finding that NoSuppress mode reveals must sit at a
//     suppression site (otherwise the clean run is clean by accident),
//   - every suppression directive must hide at least one finding
//     (otherwise it is stale: the code it excused is gone and the
//     directive is dead weight misleading readers).
func TestSuppressionsAreLoadBearing(t *testing.T) {
	pkgs, err := driver.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	clean, err := driver.Run(pkgs, Rules)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(clean) != 0 {
		t.Fatalf("repo is not lint-clean, audit would be meaningless: %v", clean)
	}
	all, err := driver.Run(pkgs, Rules, driver.NoSuppress())
	if err != nil {
		t.Fatalf("run (NoSuppress): %v", err)
	}

	type site struct {
		file string
		line int
		verb string
	}
	sites := map[site]bool{}
	for _, pkg := range pkgs {
		if pkg.Standard || !strings.HasPrefix(pkg.PkgPath, "physched") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range parseDirectives(pkg.Fset, f) {
				if !d.unknown {
					sites[site{pkg.Fset.Position(d.pos).Filename, d.line, d.verb}] = true
				}
			}
		}
	}

	// Direction 1: each revealed finding is covered by a directive on
	// its own line (trailing comment) or the line above.
	used := map[site]bool{}
	for _, d := range all {
		verb := suppressionVerbByAnalyzer[d.Analyzer]
		if verb == "" {
			t.Errorf("finding from %s has no suppression verb yet only appears in NoSuppress mode: %s", d.Analyzer, d)
			continue
		}
		same := site{d.Pos.Filename, d.Pos.Line, verb}
		above := site{d.Pos.Filename, d.Pos.Line - 1, verb}
		switch {
		case sites[same]:
			used[same] = true
		case sites[above]:
			used[above] = true
		default:
			t.Errorf("finding revealed by NoSuppress has no //physched:%s directive covering it: %s", verb, d)
		}
	}

	// Direction 2: no stale suppressions.
	var stale []string
	for s := range sites {
		if !used[s] {
			stale = append(stale, fmt.Sprintf("%s:%d: //physched:%s", s.file, s.line, s.verb))
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("stale suppression hides nothing; delete it: %s", s)
	}
}

// TestSuppressedFixtureRegresses runs the suppressed fixture twice: the
// directives keep it clean, and NoSuppress mode must resurface one
// finding per directive — proving each suppression verb actually wires
// through its analyzer's report path.
func TestSuppressedFixtureRegresses(t *testing.T) {
	for _, d := range lintFixture(t, "suppressed") {
		t.Errorf("suppressed fixture should be clean with directives honoured: %s", d)
	}
	all := lintFixture(t, "suppressed", driver.NoSuppress())
	seen := map[string]bool{}
	for _, d := range all {
		seen[d.Analyzer] = true
	}
	for analyzer := range suppressionVerbByAnalyzer {
		if !seen[analyzer] {
			t.Errorf("NoSuppress mode did not resurface a %s finding; got %v", analyzer, all)
		}
	}
}

// TestStrippedFixtureRegressesFindings is the physical variant of the
// audit: copy the suppressed fixture into a scratch module, delete the
// suppression comment lines from the source text, and re-run the suite
// through the real loader. The findings must reappear — deleting a
// directive can never silently widen what the code is allowed to do.
func TestStrippedFixtureRegressesFindings(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "suppressed", "suppressed.go"))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	var kept []string
	stripped := 0
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		isSuppression := false
		for _, verb := range suppressionVerbByAnalyzer {
			if strings.HasPrefix(trimmed, "//physched:"+verb) {
				isSuppression = true
			}
		}
		if isSuppression {
			stripped++
			continue
		}
		kept = append(kept, line)
	}
	if stripped == 0 {
		t.Fatal("fixture has no suppression lines to strip; the test is vacuous")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixturecopy\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatalf("write go.mod: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "suppressed.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatalf("write stripped source: %v", err)
	}

	pkgs, err := driver.Load(dir, "./...")
	if err != nil {
		t.Fatalf("load stripped module: %v", err)
	}
	diags, err := driver.Run(pkgs, asSimCore)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for analyzer := range suppressionVerbByAnalyzer {
		if !seen[analyzer] {
			t.Errorf("stripping suppressions did not resurface a %s finding; got %v", analyzer, diags)
		}
	}
}
