package physched

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Determinism is checked by execution first: TestRecycledStorageIsolatesRuns
// (internal/lab) runs every policy, with and without churn, in several
// orders and on several workers, and the golden files pin every figure.
// Those catch map-order and global-source bugs on every path they run.
// This test covers the paths they never run, by reading the source: no
// file of the module may draw from the global math/rand source, and only
// the sites in allowedClockSites may read or wait on the wall clock.

// globalRandFuncs are the math/rand (and /v2) package-level functions
// backed by the shared global source. rand.New, rand.NewSource,
// rand.NewPCG and the type names stay legal: they build seeded streams.
var globalRandFuncs = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
}

// wallClockFuncs are the package time functions that observe or wait on
// real time. time.Duration arithmetic, time.Unix and time.Date stay
// legal: they are pure values.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// clockSite names a wall-clock reference: the file, the function it
// sits in, and the time function it names.
type clockSite struct{ file, fn, call string }

// allowedClockSites are the module's only wall-clock reads, each with its
// reason. The simulation runs on sim time; service code takes an
// injected obs.Clock.
var allowedClockSites = map[clockSite]string{
	{"internal/obs/obs.go", "SystemClock", "Now"}:  "the production obs.Clock: every service timestamp, latency and job age derives from it",
	{"client/client.go", "WaitJob", "NewTicker"}:   "polls a live server's job status between requests",
	{"cmd/physchedsmoke/main.go", "main", "Sleep"}: "waits for a real physchedd to bind its listener",
}

// sourceFindings returns one message per global-source rand reference and
// per wall-clock reference outside allowedClockSites in f, whose
// slash-separated path from the module root is path. Every allowed site
// it passes is recorded in seen.
func sourceFindings(fset *token.FileSet, path string, f *ast.File, seen map[clockSite]bool) []string {
	// Resolve the local names of time and math/rand through this file's
	// own imports, renamed ones included.
	pkgs := map[string]string{}
	var out []string
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if p != "time" && p != "math/rand" && p != "math/rand/v2" {
			continue
		}
		name := "rand"
		if p == "time" {
			name = "time"
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			out = append(out, fmt.Sprintf("%s: dot import of %s hides its calls from this check", fset.Position(imp.Pos()), p))
		}
		pkgs[name] = p
	}
	if len(pkgs) == 0 {
		return out
	}
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name, pos := sel.Sel.Name, fset.Position(sel.Pos())
			switch pkgs[id.Name] {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[name] {
					out = append(out, fmt.Sprintf("%s: global rand.%s draws from the shared source; use a seeded *rand.Rand derived from the scenario seed", pos, name))
				}
			case "time":
				if !wallClockFuncs[name] {
					break
				}
				site := clockSite{path, fn, name}
				if _, ok := allowedClockSites[site]; ok {
					seen[site] = true
					break
				}
				out = append(out, fmt.Sprintf("%s: wall-clock time.%s in %s; run on sim time or take an obs.Clock", pos, name, fn))
			}
			return true
		})
	}
	return out
}

// TestSourceDeterminism reads every non-test Go file of the module,
// skipping testdata, directories whose names start with "." or "_", and
// nested modules.
func TestSourceDeterminism(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[clockSite]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, msg := range sourceFindings(fset, filepath.ToSlash(path), f, seen) {
			t.Error(msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site := range allowedClockSites {
		if !seen[site] {
			t.Errorf("allowed clock site %+v matches no code; remove it", site)
		}
	}
}

// TestSourceFindings pins what sourceFindings flags on small files.
func TestSourceFindings(t *testing.T) {
	for _, tc := range []struct {
		name, path, src string
		want            int
	}{
		{"global rand", "internal/sched/x.go",
			`package x; import "math/rand"; func f() int { return rand.Intn(3) }`, 1},
		{"renamed global rand", "internal/sched/x.go",
			`package x; import mr "math/rand"; func f() int { return mr.Intn(3) }`, 1},
		{"global rand v2", "internal/sched/x.go",
			`package x; import "math/rand/v2"; func f() int { return rand.IntN(3) }`, 1},
		{"time.Now outside the table", "internal/sched/x.go",
			`package x; import "time"; func f() time.Time { return time.Now() }`, 1},
		{"renamed time in a seed", "internal/sched/x.go",
			`package x; import ("math/rand"; clk "time"); var r = rand.New(rand.NewSource(clk.Now().UnixNano()))`, 1},
		{"allowed name, other file", "internal/sched/x.go",
			`package x; import "time"; func SystemClock() time.Time { return time.Now() }`, 1},
		{"dot import", "internal/sched/x.go",
			`package x; import . "time"; func f() Time { return Now() }`, 1},
		{"crypto rand", "cmd/x/x.go",
			`package x; import "crypto/rand"; func f(b []byte) { rand.Read(b) }`, 0},
		{"seeded source", "internal/sched/x.go",
			`package x; import "math/rand"; func f(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(3) }`, 0},
		{"pure time values", "internal/sched/x.go",
			`package x; import "time"; func f() time.Time { return time.Unix(0, 0).Add(time.Second) }`, 0},
		{"allowed site", "internal/obs/obs.go",
			`package obs; import "time"; func SystemClock() time.Time { return time.Now() }`, 0},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tc.path, tc.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sourceFindings(fset, tc.path, f, map[clockSite]bool{}); len(got) != tc.want {
			t.Errorf("%s: %d findings, want %d: %q", tc.name, len(got), tc.want, got)
		}
	}
}
