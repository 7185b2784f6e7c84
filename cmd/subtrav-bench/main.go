// Command subtrav-bench regenerates the paper's evaluation figures
// (Figures 8-12) and the ablation studies on the shared-disk
// simulator, printing each as an aligned text table (or markdown/CSV).
//
// Usage:
//
//	subtrav-bench [flags] <experiment>
//
// where <experiment> is one of: fig8, fig9, fig10, fig11, fig12,
// ablation, epsilon, warmstart, all — or a microbenchmark suite:
// "sched" runs the scheduler hot-path microbenchmarks
// (internal/schedbench) and writes the tracked BENCH_sched.json
// baseline, "traverse" runs the traversal-kernel microbenchmarks
// (internal/travbench) and writes the tracked BENCH_traverse.json
// baseline, "graphio" runs the snapshot-loading microbenchmarks
// (internal/graphiobench, v1 gob vs v2 flat CSR) and writes the
// tracked BENCH_graphio.json baseline, "share" runs the cross-query
// sharing suite (internal/sharebench, lockstep batching under Zipfian
// overlap) and writes the tracked BENCH_share.json baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"subtrav"
	"subtrav/internal/experiments"
	"subtrav/internal/graphiobench"
	"subtrav/internal/schedbench"
	"subtrav/internal/sharebench"
	"subtrav/internal/travbench"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "reduced sweep (tiny graph, 3 unit counts)")
		format = flag.String("format", "text", "output format: text, markdown, csv")
		seed   = flag.Uint64("seed", 42, "master random seed")
		scale  = flag.String("scale", "small", "graph scale: tiny, small, medium, large, paper")
		units  = flag.String("units", "", "comma-separated unit sweep override, e.g. 1,2,4,8")
		n      = flag.Int("queries", 0, "queries per run override")
		out    = flag.String("out", "", "benchmark report path (default BENCH_sched.json / BENCH_traverse.json per suite)")
		par    = flag.Int("parallelism", 0, "sched benchmark: scorer row-construction goroutines (0 = sequential)")
		check  = flag.Bool("check", false, "traverse/graphio/share benchmarks: fail unless the gated cells clear the acceptance floors")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] fig8|fig9|fig10|fig11|fig12|ablation|epsilon|warmstart|adaptive|latency|heterogeneous|layout|signature|eta|sched|traverse|graphio|share|all\n", os.Args[0])
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
	if s, ok := parseScale(*scale); ok {
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

	render := func(t *experiments.Table) {
		switch *format {
		case "markdown":
			fmt.Println(t.Markdown())
		case "csv":
			fmt.Println(t.CSV())
		default:
			fmt.Println(t.Text())
		}
	}
	renderAll := func(ts []*experiments.Table, err error) {
		if err != nil {
			fatal(err)
		}
		for _, t := range ts {
			render(t)
		}
	}
	renderOne := func(t *experiments.Table, err error) {
		if err != nil {
			fatal(err)
		}
		render(t)
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "fig8":
			renderAll(experiments.Fig8(cfg))
		case "fig9":
			renderAll(experiments.Fig9(cfg))
		case "fig10":
			renderOne(experiments.Fig10(cfg))
		case "fig11":
			renderOne(experiments.Fig11(cfg))
		case "fig12":
			renderOne(experiments.Fig12(cfg))
		case "ablation":
			renderAll(experiments.Ablation(cfg))
		case "epsilon":
			renderOne(experiments.EpsilonSweep(cfg.Seed, 64))
		case "warmstart":
			renderOne(experiments.WarmStartStudy(cfg.Seed, 48, 8))
		case "adaptive":
			renderOne(experiments.AdaptiveEpsilonStudy(cfg.Seed, 48, 12))
		case "latency":
			renderOne(experiments.LatencyUnderLoad(cfg))
		case "heterogeneous":
			renderOne(experiments.Heterogeneous(cfg))
		case "layout":
			renderOne(experiments.PartitionedLayout(cfg))
		case "signature":
			renderOne(experiments.SignatureCapacity(cfg))
		case "eta":
			renderOne(experiments.EtaThreshold(cfg))
		case "sched":
			runSched(*quick, *par, defaultPath(*out, "BENCH_sched.json"))
		case "traverse":
			runTraverse(*quick, *check, defaultPath(*out, "BENCH_traverse.json"))
		case "graphio":
			runGraphio(*quick, *check, defaultPath(*out, "BENCH_graphio.json"))
		case "share":
			runShare(*quick, *check, defaultPath(*out, "BENCH_share.json"))
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	target := flag.Arg(0)
	if target == "all" {
		for _, name := range []string{"fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "epsilon", "warmstart", "adaptive", "latency", "heterogeneous", "layout", "signature", "eta"} {
			run(name)
		}
		return
	}
	run(target)
}

// runSched executes the scheduler hot-path microbenchmark suite and
// writes the BENCH_sched.json report. -quick maps to smoke mode
// (single-iteration cells — proves the suite runs, numbers are noise);
// the default calibrates iteration counts for a trackable baseline.
func runSched(smoke bool, parallelism int, path string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := schedbench.Run(smoke, parallelism, logf)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d results, smoke=%v)\n", path, len(rep.Results), rep.Smoke)
}

// runTraverse executes the traversal-kernel suite (workspace kernels
// vs map-based reference, plus the direction-comparison matrix) and
// writes the BENCH_traverse.json report. -quick maps to smoke mode;
// -check enforces the mid-size acceptance floors on full runs: BFS
// ≥3x ns/op and ≥10x allocs/op over the reference, Auto ≥2x over
// forced push on the gated hub-heavy cell, and no sparse regression.
func runTraverse(smoke, check bool, path string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := travbench.Run(smoke, logf)
	if err != nil {
		fatal(err)
	}
	if check && !smoke {
		if err := rep.CheckThresholds(3, 10); err != nil {
			fatal(err)
		}
		if err := rep.CheckDirection(travbench.MinHubSpeedup, travbench.MinSparseRatio); err != nil {
			fatal(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d results, smoke=%v)\n", path, len(rep.Results), rep.Smoke)
}

// runGraphio executes the snapshot-loading suite (v1 gob vs v2 flat
// CSR) and writes the BENCH_graphio.json report. -quick maps to smoke
// mode; -check enforces the mid-size plain-fixture acceptance floor
// (≥10x fewer allocs/op on the v2 path), which holds even in smoke
// mode because allocation counts are deterministic.
func runGraphio(smoke, check bool, path string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := graphiobench.Run(smoke, logf)
	if err != nil {
		fatal(err)
	}
	if check {
		if err := rep.CheckThresholds(10); err != nil {
			fatal(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d results, smoke=%v)\n", path, len(rep.Results), rep.Smoke)
}

// runShare executes the cross-query sharing suite (lockstep
// multi-source batching under Zipfian-overlap load, against the
// no-sharing baseline) and writes the BENCH_share.json report. -quick
// maps to smoke mode (reduced scenario set); -check enforces the
// acceptance floors — bit-identical results with batching off and on
// and >= 2x fewer disk reads/query on the gated high-concurrency cell
// — which hold in both modes because the suite is virtual-time
// deterministic.
func runShare(smoke, check bool, path string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := sharebench.Run(smoke, logf)
	if err != nil {
		fatal(err)
	}
	if check {
		if err := rep.CheckThresholds(sharebench.MinReadsRatio); err != nil {
			fatal(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios, smoke=%v)\n", path, len(rep.Scenarios), rep.Smoke)
}

// defaultPath resolves the -out flag per suite.
func defaultPath(out, fallback string) string {
	if out != "" {
		return out
	}
	return fallback
}

func parseScale(s string) (subtrav.Scale, bool) {
	switch s {
	case "tiny":
		return subtrav.ScaleTiny, true
	case "small":
		return subtrav.ScaleSmall, true
	case "medium":
		return subtrav.ScaleMedium, true
	case "large":
		return subtrav.ScaleLarge, true
	case "paper":
		return subtrav.ScalePaper, true
	}
	return 0, false
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
