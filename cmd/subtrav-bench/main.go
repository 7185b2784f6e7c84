// Command subtrav-bench regenerates the paper's evaluation figures
// (Figures 8-12), the ablations and the extension studies on the
// shared-disk simulator, and runs the four in-repo benchmark suites,
// printing each as an aligned text table (or markdown/CSV).
//
// Usage:
//
//	subtrav-bench [flags] <experiment>
//
// where <experiment> is a figure or study (see studies), "all" for
// every one of those — deterministic, checked in as
// experiments_output.txt — or a suite built on internal/benchkit:
// sched, traverse and graphio are wall-clock suites, which print their
// cells and interleaved before/after ratios and write no file unless
// -out names one; share runs in virtual time, so a full run reproduces
// the tracked BENCH_share.json byte for byte and rewrites it. -quick
// runs a suite in smoke mode (two calls per cell); -check fails the run
// when a floor the suite's table declares is not met.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"subtrav"
	"subtrav/internal/benchkit"
	"subtrav/internal/experiments"
	"subtrav/internal/graphiobench"
	"subtrav/internal/schedbench"
	"subtrav/internal/sharebench"
	"subtrav/internal/travbench"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "reduced sweep (tiny graph, 3 unit counts); benchmark suites: smoke mode")
		format = flag.String("format", "text", "output format: text, markdown, csv")
		seed   = flag.Uint64("seed", 42, "master random seed")
		scale  = flag.String("scale", "small", "graph scale: tiny, small, medium, large, paper")
		units  = flag.String("units", "", "comma-separated unit sweep override, e.g. 1,2,4,8")
		n      = flag.Int("queries", 0, "queries per run override")
		out    = flag.String("out", "", "benchmark suites: write the JSON report here (default: BENCH_share.json for a full share run, no file otherwise)")
		check  = flag.Bool("check", false, "benchmark suites: fail unless every floor the suite's table declares is met")
	)
	flag.Usage = func() {
		names := []string{"all", "sched", "traverse", "graphio", "share"}
		for _, st := range studies {
			names = append(names, st.name)
		}
		fmt.Fprintf(os.Stderr, "usage: %s [flags] %s\n", os.Args[0], strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if s, ok := scales[*scale]; ok {
		cfg.Scale = s
	} else {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if *units != "" {
		sweep, err := parseUnits(*units)
		if err != nil {
			fatal(err)
		}
		cfg.UnitsSweep = sweep
	}
	if *n > 0 {
		cfg.Queries = *n
	}

	run := func(name string, tables func() ([]*experiments.Table, error)) {
		start := time.Now()
		ts, err := tables()
		if err != nil {
			fatal(err)
		}
		for _, t := range ts {
			switch *format {
			case "markdown":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Println(t.CSV())
			default:
				fmt.Println(t.Text())
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	target := flag.Arg(0)
	if s, ok := suites[target]; ok {
		run(target, func() ([]*experiments.Table, error) {
			_, tables, err := runSuite(s, *quick, *check, *out)
			return tables, err
		})
		return
	}
	known := false
	for _, st := range studies {
		if target == "all" || target == st.name {
			known = true
			run(st.name, func() ([]*experiments.Table, error) { return st.run(cfg) })
		}
	}
	if !known {
		fatal(fmt.Errorf("unknown experiment %q", target))
	}
}

// studies are the simulator experiments, in the order "all" runs them.
var studies = []struct {
	name string
	run  func(experiments.Config) ([]*experiments.Table, error)
}{
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig10", one(experiments.Fig10)},
	{"fig11", one(experiments.Fig11)},
	{"fig12", one(experiments.Fig12)},
	{"ablation", experiments.Ablation},
	{"epsilon", one(func(c experiments.Config) (*experiments.Table, error) { return experiments.EpsilonSweep(c.Seed, 64) })},
	{"warmstart", one(func(c experiments.Config) (*experiments.Table, error) {
		return experiments.WarmStartStudy(c.Seed, 48, 8)
	})},
	{"adaptive", one(func(c experiments.Config) (*experiments.Table, error) {
		return experiments.AdaptiveEpsilonStudy(c.Seed, 48, 12)
	})},
	{"latency", one(experiments.LatencyUnderLoad)},
	{"heterogeneous", one(experiments.Heterogeneous)},
	{"layout", one(experiments.PartitionedLayout)},
	{"signature", one(experiments.SignatureCapacity)},
	{"eta", one(experiments.EtaThreshold)},
}

// one adapts a single-table study to the studies signature.
func one(f func(experiments.Config) (*experiments.Table, error)) func(experiments.Config) ([]*experiments.Table, error) {
	return func(c experiments.Config) ([]*experiments.Table, error) {
		t, err := f(c)
		return []*experiments.Table{t}, err
	}
}

// suite is one benchmark suite as runSuite drives it: tracked is the
// committed, cmp-gated file a full run rewrites ("" for the wall-clock
// suites, which commit nothing); run returns the report — what -check
// checks and, as JSON, what -out holds.
type suite struct {
	tracked string
	run     func(smoke bool, logf func(string, ...any)) (interface{ Check() error }, error)
}

var suites = map[string]suite{
	"sched":    suiteOf("", schedbench.Run),
	"traverse": suiteOf("", travbench.Run),
	"graphio":  suiteOf("", graphiobench.Run),
	"share":    suiteOf("BENCH_share.json", sharebench.Run),
}

func suiteOf[R interface{ Check() error }](tracked string, run func(bool, func(string, ...any)) (R, error)) suite {
	return suite{tracked, func(smoke bool, logf func(string, ...any)) (interface{ Check() error }, error) {
		return run(smoke, logf)
	}}
}

// runSuite executes one suite — -quick maps to smoke mode, which
// proves the suite runs and holds its count floors while its timings
// are noise — enforces the table's floors under -check, writes the
// JSON report where reportPath says, and returns the report and the
// tables to print (share prints through its log lines: what it reports
// is counts).
func runSuite(s suite, smoke, check bool, out string) (interface{ Check() error }, []*experiments.Table, error) {
	rep, err := s.run(smoke, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err == nil && check {
		err = rep.Check()
	}
	if err != nil {
		return nil, nil, err
	}
	if path := reportPath(out, s.tracked, smoke); path != "" {
		var buf bytes.Buffer
		if err := benchkit.WriteJSON(&buf, rep); err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (smoke=%v)\n", path, smoke)
	}
	if r, ok := rep.(*benchkit.Report); ok {
		return rep, cellTables(r), nil
	}
	return rep, nil, nil
}

// reportPath resolves where a suite run writes its JSON report: -out
// when given; else the suite's tracked file, but only on a full run —
// a smoke run must never clobber a committed baseline; else nowhere.
func reportPath(out, tracked string, smoke bool) string {
	if out != "" || smoke {
		return out
	}
	return tracked
}

// cellTables renders a benchkit report: one table of cells, one of the
// interleaved baseline÷versus ratios beside the floors -check enforces.
func cellTables(r *benchkit.Report) []*experiments.Table {
	dash := func(zero bool, s string) string {
		if zero {
			return "-"
		}
		return s
	}
	x := func(v float64) string { return dash(v == 0, fmt.Sprintf("%.2f", v)) }
	cells := &experiments.Table{
		Title:   r.Suite + " suite: cells",
		Columns: []string{"cell", "iters", "ns/op", "allocs/op", "B/op", "count/op", "retained B"},
		Notes: []string{fmt.Sprintf("%s %s/%s, %d CPUs, smoke=%v; wall-clock numbers are printed, not committed",
			r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU, r.Smoke)},
	}
	ratios := &experiments.Table{
		Title: r.Suite + " suite: baseline ÷ versus (above 1: versus is the cheaper side)",
		Columns: []string{"baseline", "versus", "ns q1", "ns median", "ns q3",
			"allocs", "allocs floor", "count", "count floor"},
		Notes: []string{"ns: quartiles of the per-round ratios of benchkit.Compare's alternating slices; printed, not gated"},
	}
	for _, res := range r.Results {
		cells.AddRow(res.Name, res.Iters, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, x(res.CountPerOp),
			dash(res.RetainedBytes == 0, fmt.Sprint(res.RetainedBytes)))
		if sp, ok := r.Speedup[res.Name]; ok {
			ratios.AddRow(res.Name, sp.Versus, x(sp.Ns.Q1), x(sp.Ns.Median), x(sp.Ns.Q3),
				x(sp.AllocRatio), x(sp.Floor.Allocs), x(sp.CountRatio), x(sp.Floor.Count))
		}
	}
	return []*experiments.Table{cells, ratios}
}

var scales = map[string]subtrav.Scale{
	"tiny": subtrav.ScaleTiny, "small": subtrav.ScaleSmall, "medium": subtrav.ScaleMedium,
	"large": subtrav.ScaleLarge, "paper": subtrav.ScalePaper,
}

func parseUnits(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var u int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &u); err != nil || u <= 0 {
			return nil, fmt.Errorf("bad unit count %q", part)
		}
		out = append(out, u)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "subtrav-bench:", err)
	os.Exit(1)
}
