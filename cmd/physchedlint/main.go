// Command physchedlint is the repo's multichecker: it runs the
// internal/analysis determinism suite — detrand, walltime, maporder and
// physcheddirective — over the given package patterns and exits nonzero
// on any finding. CI runs it over ./...; run it locally the same way:
//
//	go run ./cmd/physchedlint ./...
//
// Each analyzer is scoped by analysis.Rules (determinism checks on the
// sim-core packages, the clock and rand bans also on the service layer,
// the annotation check everywhere); see DESIGN.md §11 for the contracts
// and the //physched: annotation grammar. Concurrency and allocation
// are gated by `go test -race`, the simtest harness and the CI bench
// gate instead.
//
// Output formats (-format):
//
//	text    one "file:line:col: analyzer: message" line per finding
//	json    a JSON array of {file, line, column, analyzer, message}
//	github  GitHub Actions ::error annotations, one per finding
//
// All formats list findings in the same deterministic order (file, line,
// column, analyzer, message). Exit codes: 0 clean, 1 findings, 2 loader
// or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"physched/internal/analysis"
	"physched/internal/analysis/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("physchedlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	format := fs.String("format", "text", "output format: text, json, or github")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: physchedlint [-list] [-format=text|json|github] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "physchedlint: unknown -format %q (text, json, github)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Lint(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "physchedlint: %v\n", err)
		return 2
	}
	if err := emit(stdout, *format, diags); err != nil {
		fmt.Fprintf(stderr, "physchedlint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "physchedlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable finding shape: snake_case keys,
// stable field order, paths relative to the working directory when
// possible so output does not depend on the checkout location.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emit(w io.Writer, format string, diags []driver.Diagnostic) error {
	switch format {
	case "json":
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File:     relPath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(findings)
	case "github":
		for _, d := range diags {
			fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s: %s\n",
				githubEscapeProp(relPath(d.Pos.Filename)), d.Pos.Line, d.Pos.Column,
				d.Analyzer, githubEscape(d.Message))
		}
		return nil
	default:
		for _, d := range diags {
			fmt.Fprintf(w, "%s\n", d)
		}
		return nil
	}
}

// relPath relativizes an absolute finding path against the working
// directory; paths outside it (or when cwd is unknown) stay absolute.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return filepath.ToSlash(rel)
}

// githubEscape encodes the characters the Actions workflow-command
// parser treats specially in the message position.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProp encodes a workflow-command property value (the
// file=... position): the message escapes plus the ':' and ','
// delimiters, per the Actions command spec.
func githubEscapeProp(s string) string {
	s = githubEscape(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
