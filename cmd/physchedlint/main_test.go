package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestSabotagedFixtureExitsNonzero is the end-to-end contract of the
// multichecker: a package violating the contracts makes it exit 1 and
// print each finding. The fixture sits outside the determinism boundary,
// so under Rules only its malformed directive is in scope.
func TestSabotagedFixtureExitsNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"physched/internal/analysis/testdata/src/sabotage"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d on sabotaged package, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	for _, needle := range []string{"physcheddirective", "sabotage.go"} {
		if !strings.Contains(stdout.String(), needle) {
			t.Errorf("findings do not mention %q:\n%s", needle, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing the findings summary: %q", stderr.String())
	}
}

// TestListFlag: -list prints one line per analyzer and exits 0.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code %d, stderr: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"detrand", "walltime", "maporder", "physcheddirective"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("-list names = %v, want %v", names, want)
	}
}

// TestJSONOutput: -format=json emits a machine-readable array with
// snake_case keys, still exiting 1 on findings.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "json", "physched/internal/analysis/testdata/src/sabotage"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, stderr.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output has no findings for the sabotaged package")
	}
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column <= b.Column
	})
	if !sorted {
		t.Error("JSON findings are not in file/line/column order")
	}
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.Analyzer] = true
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
	}
	if !seen["physcheddirective"] {
		t.Errorf("JSON output missing the physcheddirective finding:\n%s", stdout.String())
	}
}

// TestGitHubFormat: -format=github emits workflow error annotations.
func TestGitHubFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "github", "physched/internal/analysis/testdata/src/sabotage"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=") {
			t.Errorf("not a github annotation: %q", line)
		}
	}
	if !strings.Contains(stdout.String(), "line=") || !strings.Contains(stdout.String(), "::physcheddirective:") {
		t.Errorf("annotations missing line numbers or analyzer prefix:\n%s", stdout.String())
	}
}

// TestGitHubPropertyEscape: property values (the file= position) need
// the message escapes plus the ':' and ',' delimiters encoded, or a
// hostile path corrupts the ::error annotation.
func TestGitHubPropertyEscape(t *testing.T) {
	got := githubEscapeProp("dir,x:y/100%.go\n")
	want := "dir%2Cx%3Ay/100%25.go%0A"
	if got != want {
		t.Errorf("githubEscapeProp = %q, want %q", got, want)
	}
	if msg := githubEscape("50% done: a,b"); msg != "50%25 done: a,b" {
		t.Errorf("githubEscape = %q, want %q", msg, "50%25 done: a,b")
	}
}

// TestBadFormatExits2: an unknown -format is a usage error.
func TestBadFormatExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d for unknown format, want 2\nstderr: %s", code, stderr.String())
	}
}

// TestBadPatternExits2: loader errors are exit code 2, not a silent pass.
func TestBadPatternExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"physched/does/not/exist"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d on unknown package, want 2\nstderr: %s", code, stderr.String())
	}
}
