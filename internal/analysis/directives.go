// Package analysis is physchedlint: repo-specific static analyzers that
// make this repo's determinism contract compile-time checkable instead
// of golden-file-discovered. See DESIGN.md §11 for the
// invariant each analyzer guards and the annotation grammar.
package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"physched/internal/analysis/driver"
)

// The //physched: annotation grammar. Annotations are real, checked
// syntax: the directive analyzer rejects unknown verbs, missing reasons
// and misplaced annotations, so a typo cannot silently disable a check.
// Each verb suppresses one finding and must say why:
//
//	//physched:orderinvariant <reason>      (range stmt) map iteration deliberately unordered
//	//physched:walltime <reason>            (stmt) deliberate wall-clock read at a wiring site
const directivePrefix = "//physched:"

// directiveSpecs maps each verb to the analyzer it suppresses.
var directiveSpecs = map[string]string{
	"orderinvariant": "maporder",
	"walltime":       "walltime",
}

// knownVerbs returns the grammar's verbs, sorted, for diagnostics.
func knownVerbs() string {
	verbs := make([]string, 0, len(directiveSpecs))
	for v := range directiveSpecs {
		verbs = append(verbs, v)
	}
	sort.Strings(verbs)
	return strings.Join(verbs, ", ")
}

// directive is one parsed //physched: comment.
type directive struct {
	verb    string
	reason  string
	pos     token.Pos
	line    int // 1-based line of the comment
	unknown bool
}

// parseDirectives extracts every //physched: comment in the file,
// including malformed ones (unknown=true) so the directive analyzer can
// reject them.
func parseDirectives(fset *token.FileSet, file *ast.File) []directive {
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			// A line comment runs to end of line, so a fixture's
			// `// want "..."` expectation on a directive line would
			// otherwise be swallowed into the reason text.
			if i := strings.Index(rest, "// want"); i >= 0 {
				rest = rest[:i]
			}
			verb, reason, _ := strings.Cut(rest, " ")
			d := directive{
				verb:   verb,
				reason: strings.TrimSpace(reason),
				pos:    c.Pos(),
				line:   fset.Position(c.Pos()).Line,
			}
			if _, ok := directiveSpecs[verb]; !ok {
				d.unknown = true
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressions indexes well-formed directives by (file, line, verb) so
// analyzers can ask "is this finding suppressed?". A directive suppresses
// findings on its own line (trailing comment) and on the line directly
// below it (comment-above style).
type suppressions struct {
	fset *token.FileSet
	m    map[suppKey]bool
}

type suppKey struct {
	file string
	line int
	verb string
}

func newSuppressions(pass *driver.Pass) suppressions {
	s := suppressions{fset: pass.Fset, m: map[suppKey]bool{}}
	if pass.NoSuppress {
		// Audit mode: pretend no suppression comments exist, so every
		// suppressed finding resurfaces.
		return s
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		for _, d := range parseDirectives(pass.Fset, f) {
			if d.unknown {
				continue // the directive analyzer reports these
			}
			s.m[suppKey{name, d.line, d.verb}] = true
			s.m[suppKey{name, d.line + 1, d.verb}] = true
		}
	}
	return s
}

// allows reports whether a directive of verb covers the line of pos.
func (s suppressions) allows(pos token.Pos, verb string) bool {
	p := s.fset.Position(pos)
	return s.m[suppKey{p.Filename, p.Line, verb}]
}

// Directive validates the annotation grammar itself: unknown verbs,
// missing mandatory reasons, and annotations detached from the syntax
// they claim to describe are all lint errors. This is what makes the
// grammar "real syntax": a misspelled suppression fails the build
// instead of silently not suppressing.
var Directive = &driver.Analyzer{
	Name: "physcheddirective",
	Doc:  "validate //physched: annotations (" + knownVerbs() + ")",
	Run:  runDirective,
}

func runDirective(pass *driver.Pass) error {
	for _, f := range pass.Files {
		ds := parseDirectives(pass.Fset, f)
		if len(ds) == 0 {
			continue
		}
		anchors := directiveAnchors(pass, f)
		for _, d := range ds {
			if d.unknown {
				pass.Reportf(d.pos, "unknown //physched: directive %q (known: %s)", d.verb, knownVerbs())
				continue
			}
			if d.reason == "" {
				pass.Reportf(d.pos, "//physched:%s needs a reason: //physched:%s <why this is safe>", d.verb, d.verb)
			}
			if ok := anchors.placed(d); !ok {
				pass.Reportf(d.pos, "misplaced //physched:%s: %s", d.verb, placementRule(d.verb))
			}
		}
	}
	return nil
}

func placementRule(verb string) string {
	if verb == "orderinvariant" {
		return "must sit on or directly above a range statement"
	}
	return "must sit on or directly above a statement inside a function body"
}

// anchorIndex records which source lines hold the syntax each directive
// verb must attach to.
type anchorIndex struct {
	rangeLines map[int]bool // lines where a RangeStmt starts
	stmtLines  map[int]bool // lines where any statement starts
}

func directiveAnchors(pass *driver.Pass, f *ast.File) anchorIndex {
	ai := anchorIndex{rangeLines: map[int]bool{}, stmtLines: map[int]bool{}}
	line := func(p token.Pos) int { return pass.Fset.Position(p).Line }
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			st, ok := n.(ast.Stmt)
			if !ok {
				return true
			}
			l := line(st.Pos())
			ai.stmtLines[l] = true
			if _, ok := st.(*ast.RangeStmt); ok {
				ai.rangeLines[l] = true
			}
			return true
		})
	}
	return ai
}

// placed reports whether directive d sits at a line its verb may anchor
// to: its own line (trailing comment) or the next line (comment above).
func (ai anchorIndex) placed(d directive) bool {
	lines := ai.stmtLines
	if d.verb == "orderinvariant" {
		lines = ai.rangeLines
	}
	return lines[d.line] || lines[d.line+1]
}
