// Command subtrav-bench regenerates the paper's evaluation figures
// (Figures 8-12), the ablations and the extension studies on the
// shared-disk simulator, printing each as an aligned text table (or
// markdown/CSV).
//
// Usage:
//
//	subtrav-bench [flags] <experiment>
//
// where <experiment> is a figure or study (see experiments.Studies),
// or "all" for every one of those — deterministic, checked in as
// experiments_output.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"subtrav"
	"subtrav/internal/experiments"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "reduced sweep (tiny graph, 3 unit counts; share: the gated cell only)")
		format = flag.String("format", "text", "output format: text, markdown, csv")
		seed   = flag.Uint64("seed", 42, "master random seed")
		scale  = flag.String("scale", "small", "graph scale: tiny, small, medium, large, paper")
		units  = flag.String("units", "", "comma-separated unit sweep override, e.g. 1,2,4,8")
		n      = flag.Int("queries", 0, "queries per run override")
	)
	flag.Usage = func() {
		names := []string{"all"}
		for _, st := range experiments.Studies {
			names = append(names, st.Name)
		}
		fmt.Fprintf(os.Stderr, "usage: %s [flags] %s\n", os.Args[0], strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if !slices.Contains(formats, *format) {
		fmt.Fprintf(os.Stderr, "subtrav-bench: unknown -format %q\n", *format)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	sc, err := subtrav.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg.Scale = sc
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

	grid, err := experiments.NewGrid(cfg)
	if err != nil {
		fatal(err)
	}
	target := flag.Arg(0)
	known := false
	for _, st := range experiments.Studies {
		if target != "all" && target != st.Name {
			continue
		}
		known = true
		start := time.Now()
		ts, err := st.Run(grid)
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
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", st.Name, time.Since(start).Round(time.Millisecond))
	}
	if !known {
		fatal(fmt.Errorf("unknown experiment %q", target))
	}
}

// formats are the -format values main accepts.
var formats = []string{"text", "markdown", "csv"}

func parseUnits(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || u <= 0 {
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
