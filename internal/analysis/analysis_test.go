package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const suppressionSrc = `package p

func a() {
	x := 1 //lint:allow check trailing comment with reason
	_ = x
}

func b() {
	//lint:allow check comment above the statement
	y := 2
	_ = y
}

func c() {
	z := 3 //lint:allow check
	_ = z
}

func d() {
	//lint:allow
	w := 4
	_ = w
}
`

func parseOne(t *testing.T, src string) (*token.FileSet, suppressions, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	sup := suppressions{}
	sup.collect(fset, files)
	return fset, sup, MalformedAllows(fset, files)
}

func TestSuppressions(t *testing.T) {
	fset, sup, malformed := parseOne(t, suppressionSrc)
	_ = fset

	diag := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: "p.go", Line: line}}
	}

	// Trailing comment suppresses its own line.
	if !sup.allows(diag(4, "check")) {
		t.Errorf("trailing //lint:allow did not suppress its line")
	}
	// Comment-above suppresses the next line.
	if !sup.allows(diag(10, "check")) {
		t.Errorf("//lint:allow above the statement did not suppress it")
	}
	// Wrong analyzer name is not suppressed.
	if sup.allows(diag(4, "other")) {
		t.Errorf("suppression leaked to a different analyzer")
	}
	// The documented rule: a marker covers its own line and the next
	// one (so trailing and above-the-statement placements both work).
	if !sup.allows(diag(5, "check")) {
		t.Errorf("suppression should cover the line after the comment")
	}
	// But no further.
	if sup.allows(diag(6, "check")) {
		t.Errorf("suppression reached two lines below the comment")
	}
	// Reason-less comments do not take effect and are reported.
	if sup.allows(diag(24, "check")) {
		t.Errorf("//lint:allow with no reason suppressed a finding")
	}
	if len(malformed) != 2 {
		t.Fatalf("MalformedAllows = %d findings, want 2 (no-reason and bare forms)", len(malformed))
	}
	for _, m := range malformed {
		if !strings.Contains(m.Message, "malformed //lint:allow") {
			t.Errorf("unexpected malformed-allow message %q", m.Message)
		}
	}
}

func TestSortDiagnostics(t *testing.T) {
	ds := []Diagnostic{
		{Analyzer: "b", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "z", Pos: token.Position{Filename: "a.go", Line: 1}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 2}, Message: "x"},
	}
	sortDiagnostics(ds)
	if ds[0].Analyzer != "z" || ds[1].Analyzer != "a" || ds[1].Message != "" || ds[3].Analyzer != "b" {
		t.Errorf("unexpected order: %v", ds)
	}
}
