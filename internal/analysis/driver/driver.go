// Package driver is a self-contained, stdlib-only analysis framework in
// the spirit of golang.org/x/tools/go/analysis: analyzers receive a
// parsed, fully type-checked package (a Pass) and report position-anchored
// diagnostics. The x/tools module is deliberately not a dependency — this
// repo builds offline with zero external requirements (see DESIGN.md §11)
// — so the loader (load.go) drives `go list -json -deps` plus go/types
// source type-checking instead of go/packages, and this file mirrors the
// small subset of the upstream API the physchedlint analyzers need. If
// the module ever gains network-fetched deps, the analyzers port to
// x/tools by swapping this package's types for their upstream namesakes.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check: a name for diagnostics, a doc string for
// -help style listings, and a Run function applied to one package at a
// time. Analyzers are stateless across packages so the multichecker can
// apply any subset to any package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// NoSuppress asks analyzers to ignore in-source suppression comments
	// and report everything. It exists for the suppression-staleness
	// audit (a suppression that hides nothing in NoSuppress mode is dead
	// weight).
	NoSuppress bool

	report func(Diagnostic)
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// RunOption tweaks how Run configures each Pass.
type RunOption func(*runOptions)

type runOptions struct {
	noSuppress bool
}

// NoSuppress makes every Pass report suppressed findings too — the
// suppression-staleness audit's entry point.
func NoSuppress() RunOption {
	return func(o *runOptions) { o.noSuppress = true }
}

// Run applies, for every loaded package, the analyzers that the select
// function returns for it, and returns all diagnostics sorted by file,
// line, column, then analyzer name — a deterministic order, because lint
// output is itself subject to this repo's byte-identity discipline.
func Run(pkgs []*Package, selectAnalyzers func(*Package) []*Analyzer, opts ...RunOption) ([]Diagnostic, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range selectAnalyzers(pkg) {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				NoSuppress: ro.noSuppress,
				report:     func(d Diagnostic) { out = append(out, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}
