// Package analysistest runs an analyzer over a fixture package and
// checks its findings against expectations embedded in the fixture
// source, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//   - a line that should be flagged carries a trailing
//     `// want "regexp"` comment; the regexp must match the
//     diagnostic's message and every diagnostic must be wanted;
//   - a line carrying `//lint:allow <analyzer> <reason>` (and no
//     want) asserts the suppression machinery swallows the finding.
//
// Fixtures live under <analyzer>/testdata/src/<pkg>/ — directories
// the go tool ignores, so fixture code may freely violate the very
// invariants the suite enforces without tripping subtrav-vet runs
// over ./...
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"subtrav/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// Run loads testdata/src/<pkg> relative to the test's working
// directory, applies the analyzer (with suppressions honored), and
// reports any mismatch between actual findings and // want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	loader := analysis.NewLoader(".")
	loaded, err := loader.LoadDir("subtravvet.test/"+pkg, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	res, err := analysis.Run([]*analysis.Package{loaded},
		[]*analysis.Analyzer{a}, map[string]analysis.Scope{a.Name: {}})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, dir)

	matched := map[string]bool{}
	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		w, ok := wants[key]
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", key, d.Message, w.pattern)
		}
		matched[key] = true
	}
	for key, w := range wants {
		if !matched[key] {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, w.pattern)
		}
	}
}

type want struct {
	pattern string
	re      *regexp.Regexp
}

// collectWants scans fixture sources for // want comments, keyed by
// "file.go:line".
func collectWants(t *testing.T, dir string) map[string]want {
	t.Helper()
	wants := map[string]want{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := strings.ReplaceAll(m[1], `\"`, `"`)
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pattern, err)
			}
			wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = want{pattern: pattern, re: re}
		}
	}
	return wants
}
