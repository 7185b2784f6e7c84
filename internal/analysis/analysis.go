// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer runs over one
// type-checked package at a time and reports position-anchored
// diagnostics. The repo cannot vendor x/tools (the build environment
// is offline and the module has no external dependencies by policy),
// so this package reimplements the small slice of the API the
// subtrav-vet suite needs — same Analyzer/Pass shape, so the
// analyzers port to the upstream framework mechanically if the
// dependency ever lands.
//
// Beyond the x/tools core it bakes in one repo convention: a
// diagnostic is suppressed when the offending line (or the line
// directly above it) carries a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; an allow comment without one is ignored,
// so every suppression in the tree documents why the invariant is
// waived at that site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run is invoked once per package with
// a fully type-checked Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments. It must look like an identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. It must not retain the Pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// Analyzer.Run invocation.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
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

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Callee resolves the *types.Func a call expression invokes, whether
// through a plain identifier, a package selector or a method
// selector. It returns nil for calls through function-typed values,
// type conversions and built-ins.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// allowMarker is the comment prefix that suppresses a diagnostic.
const allowMarker = "//lint:allow"

// parseAllow decodes a comment as a suppression. isAllow reports
// whether the comment is an allow marker at all; wellFormed whether
// it names an analyzer and documents a reason.
func parseAllow(text string) (name string, isAllow, wellFormed bool) {
	rest, ok := strings.CutPrefix(text, allowMarker)
	if !ok {
		return "", false, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false, false // e.g. //lint:allowlist — not ours
	}
	name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
	return name, true, name != "" && strings.TrimSpace(reason) != ""
}

// allowMarkerSite is one well-formed //lint:allow comment; used is
// set when the marker suppresses at least one diagnostic, so stale
// suppressions are detectable (see UnusedAllows).
type allowMarkerSite struct {
	pos  token.Position
	name string // analyzer the marker suppresses
	used bool
}

// suppressions maps filename -> line -> analyzer name -> marker.
// Both lines a marker covers point at the same site record.
type suppressions map[string]map[int]map[string]*allowMarkerSite

// collect adds the //lint:allow markers in files' comments. A marker
// covers its own source line and the next one, so both trailing
// comments and comments-above-the-statement work.
func (sup suppressions) collect(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, isAllow, wellFormed := parseAllow(c.Text)
				if !isAllow || !wellFormed {
					// No documented reason: the suppression does not
					// take effect. MalformedAllows surfaces these so
					// they cannot silently rot.
					continue
				}
				pos := fset.Position(c.Pos())
				site := &allowMarkerSite{pos: pos, name: name}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]*allowMarkerSite{}
					sup[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]*allowMarkerSite{}
					}
					byLine[line][name] = site
				}
			}
		}
	}
}

// allows reports whether d is suppressed, marking the covering
// marker as used.
func (s suppressions) allows(d Diagnostic) bool {
	site := s[d.Pos.Filename][d.Pos.Line][d.Analyzer]
	if site == nil {
		return false
	}
	site.used = true
	return true
}

// unused returns one diagnostic per marker that never suppressed a
// finding, in positional order.
func (s suppressions) unused() []Diagnostic {
	seen := map[*allowMarkerSite]bool{}
	var out []Diagnostic
	for _, byLine := range s {
		for _, byName := range byLine {
			for _, site := range byName {
				if site.used || seen[site] {
					continue
				}
				seen[site] = true
				out = append(out, Diagnostic{
					Analyzer: "unused-allow",
					Pos:      site.pos,
					Message: fmt.Sprintf("//lint:allow %s suppresses nothing: the finding it excused is gone (or the analyzer name is wrong); delete the stale suppression",
						site.name),
				})
			}
		}
	}
	sortDiagnostics(out)
	return out
}

// MalformedAllows returns a diagnostic for every //lint:allow comment
// that is missing its analyzer name or reason, so the driver can
// reject undocumented suppressions.
func MalformedAllows(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, isAllow, wellFormed := parseAllow(c.Text)
				if isAllow && !wellFormed {
					out = append(out, Diagnostic{
						Analyzer: "lint",
						Pos:      fset.Position(c.Pos()),
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"",
					})
				}
			}
		}
	}
	return out
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
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
}
