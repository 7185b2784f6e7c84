package main

import (
	"os"
	"slices"
	"testing"

	"subtrav/internal/benchkit"
	"subtrav/internal/graphiobench"
	"subtrav/internal/schedbench"
	"subtrav/internal/sharebench"
	"subtrav/internal/travbench"
)

// A smoke run must never clobber a committed baseline: without -out it
// writes nowhere, whatever the suite tracks.
func TestReportPath(t *testing.T) {
	for _, c := range []struct {
		out, tracked string
		smoke        bool
		want         string
	}{
		{"", "BENCH_share.json", false, "BENCH_share.json"},
		{"", "BENCH_share.json", true, ""},
		{"x.json", "BENCH_share.json", true, "x.json"},
		{"", "", false, ""},
	} {
		if got := reportPath(c.out, c.tracked, c.smoke); got != c.want {
			t.Errorf("reportPath(%q, %q, smoke=%v) = %q, want %q", c.out, c.tracked, c.smoke, got, c.want)
		}
	}
}

// Each suite's cells are declared once: the names `go test -bench`
// runs (benchkit.Bench walks the suite's Table) are the names
// `subtrav-bench -quick <suite>` reports, in the same order — and that
// run, given no -out, leaves no file behind.
func TestBenchRunsTheReportedCells(t *testing.T) {
	tables := map[string][]benchkit.Group{
		"sched":    schedbench.Table(),
		"traverse": travbench.Table(),
		"graphio":  graphiobench.Table(),
		"share":    sharebench.Table(),
	}
	wd, err := os.Getwd()
	if err == nil {
		err = os.Chdir(t.TempDir())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name, s := range suites {
		t.Run(name, func(t *testing.T) {
			var bench []string
			if err := benchkit.Each(tables[name], func(c benchkit.Cell) error {
				bench = append(bench, c.Name)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			rep, _, err := runSuite(s, true, false, "")
			if err != nil {
				t.Fatal(err)
			}
			var emitted []string
			switch r := rep.(type) {
			case *benchkit.Report:
				for _, res := range r.Results {
					emitted = append(emitted, res.Name)
				}
			case *sharebench.Report:
				for _, sc := range r.Scenarios {
					for _, m := range sc.Modes {
						emitted = append(emitted, sc.Name+"/"+m.Mode)
					}
				}
			}
			if !slices.Equal(bench, emitted) {
				t.Errorf("go test -bench runs %q\nsubtrav-bench %s reports %q", bench, name, emitted)
			}
			if left, _ := os.ReadDir("."); len(left) != 0 {
				t.Errorf("subtrav-bench -quick %s left %v behind", name, left)
			}
		})
	}
}
