package suite_test

import (
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"subtrav/internal/analysis"
	"subtrav/internal/analysis/suite"
)

// TestSuiteWiring asserts every analyzer is well-formed and every
// scope refers to a real analyzer, so a renamed analyzer cannot
// silently orphan its policy.
func TestSuiteWiring(t *testing.T) {
	if n := len(suite.Analyzers()); n != 6 {
		t.Errorf("suite has %d analyzers, want 6 (README table and CI summary list six)", n)
	}
	names := map[string]bool{}
	for _, a := range suite.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc or Run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for name, scope := range suite.Scopes() {
		if !names[name] {
			t.Errorf("scope for unknown analyzer %q", name)
		}
		for _, p := range scope.Paths {
			if !strings.HasPrefix(p, "subtrav/") {
				t.Errorf("scope path %q for %s is not module-qualified", p, name)
			}
		}
	}
}

// TestRepoIsClean is the driver smoke test: the full suite over the
// entire module must come back with zero findings — the same gate
// the CI static-analysis job enforces with cmd/subtrav-vet. It also
// exercises the loader end to end (go list, parsing, type-checking
// every package against its imports' export data).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load("subtrav/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; go list pattern broken?", len(pkgs))
	}
	res, err := analysis.Run(pkgs, suite.Analyzers(), suite.Scopes())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("unexpected finding: %s", d)
	}
	// Stale-suppression hygiene rides along: a full-suite, full-module
	// run is the one context where an unused //lint:allow is
	// meaningful, so the smoke test keeps the tree free of them.
	for _, d := range res.UnusedAllows {
		t.Errorf("stale suppression: %s", d)
	}
}

// mutants each re-introduce one bug class the repo has had, or that an
// analyzer exists for, as a fixture under testdata/mutants/<name>
// loaded into package subtrav/internal/<in>/<name>, so the suite's own
// scopes decide what runs on it. fires is every analyzer that reports
// it. A row nothing fires on says in its comment what catches the bug
// instead (EXPERIMENTS.md, "Sizing the vet suite", has go vet and
// -race for every row).
var mutants = []struct {
	name, in string
	fires    []string
}{
	// Wall clock in the event loop.
	{"wallclock", "sim", []string{"simdet"}},
	// PR 5's CollabFilter: the trace recorded in map order.
	{"collabhop2", "traverse", []string{"simdet"}},
	// graphgen's Barabási–Albert generator, since deleted: edges
	// attached in map order.
	{"baattach", "graphgen", []string{"simdet"}},
	// A decoded count sizes a make with no check at all.
	{"uncheckedlen", "graphio", []string{"taintlen"}},
	// The arenaString overflow: a check that is present but wraps.
	// Caught by TestReadCSRArenaOffsetOverflow and FuzzReadCSR.
	{"arenaoverflow", "graphio", nil},
	// PR 23's container/heap boxing in a //vet:hotpath body.
	{"hotpathbox", "sim", []string{"allocfree"}},
	// A channel send under the runtime lock.
	{"sendunderlock", "live", []string{"lockhold"}},
	// A handler that submits under context.Background().
	{"handlerroot", "service", []string{"ctxplumb"}},
	// A tenant name straight into a label.
	{"tenantlabel", "live", []string{"metriclabel"}},
	// A goroutine with no exit. Caught by every test that closes what
	// started it: Close waits on the WaitGroup and the test times out.
	{"spinninggoroutine", "live", nil},
	// Runtime lock and a signature stripe taken in both orders. Nothing
	// catches it; the module's lock graph is two edges, both from
	// live.Runtime.mu into obs, which takes no other lock.
	{"lockinversion", "live", nil},
	// One plain read of an atomically written field. Caught by -race
	// when the accesses overlap; the tree has no function-style
	// sync/atomic call left to mix with.
	{"atomicmix", "chaos", nil},
}

// TestMutationAudit runs the whole suite over every mutant and pins
// which analyzers fire, then checks the suite is sized to what it
// catches: every analyzer is the only one to fire on some mutant.
func TestMutationAudit(t *testing.T) {
	loader := analysis.NewLoader(".")
	soleGuard := map[string]bool{}
	for _, m := range mutants {
		pkg, err := loader.LoadDir("subtrav/internal/"+m.in+"/"+m.name, filepath.Join("testdata", "mutants", m.name))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		res, err := analysis.Run([]*analysis.Package{pkg}, suite.Analyzers(), suite.Scopes())
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		var fired []string
		for _, d := range res.Diagnostics {
			if !slices.Contains(fired, d.Analyzer) {
				fired = append(fired, d.Analyzer)
			}
		}
		sort.Strings(fired)
		if !slices.Equal(fired, m.fires) {
			t.Errorf("%s: fired %v, want %v; findings: %v", m.name, fired, m.fires, res.Diagnostics)
		}
		if len(fired) == 1 {
			soleGuard[fired[0]] = true
		}
	}
	for _, a := range suite.Analyzers() {
		if !soleGuard[a.Name] {
			t.Errorf("%s fires alone on no mutant: add the bug class it guards, or delete it", a.Name)
		}
	}
}
