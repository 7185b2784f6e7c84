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
	f := defineFlags(flag.CommandLine)
	flag.Usage = func() {
		names := []string{"all"}
		for _, st := range experiments.Studies {
			names = append(names, st.Name)
		}
		fmt.Fprintf(os.Stderr, "usage: %s [flags] %s\n", os.Args[0], strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if !slices.Contains(formats, *f.format) {
		fmt.Fprintf(os.Stderr, "subtrav-bench: unknown -format %q\n", *f.format)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := f.config()
	if err != nil {
		fatal(err)
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
			switch *f.format {
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

// benchFlags are the command line's flags, defined on one flag set.
type benchFlags struct {
	fs                   *flag.FlagSet
	quick                *bool
	format, scale, units *string
	seed                 *uint64
	queries              *int
}

func defineFlags(fs *flag.FlagSet) *benchFlags {
	return &benchFlags{
		fs:      fs,
		quick:   fs.Bool("quick", false, "reduced sweep (tiny graph, 3 unit counts; share: the gated cell only)"),
		format:  fs.String("format", "text", "output format: text, markdown, csv"),
		seed:    fs.Uint64("seed", 42, "master random seed"),
		scale:   fs.String("scale", "small", "graph scale: tiny, small, medium, large, paper (-quick alone: tiny)"),
		units:   fs.String("units", "", "comma-separated unit sweep override, e.g. 1,2,4,8"),
		queries: fs.Int("queries", 0, "queries per run override"),
	}
}

// config builds the experiment configuration the parsed flags ask for:
// -quick starts from experiments.Quick, and -scale replaces the starting
// configuration's scale only when the command line gives it.
func (f *benchFlags) config() (experiments.Config, error) {
	cfg := experiments.Default()
	if *f.quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *f.seed
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "scale" {
			cfg.Scale, err = subtrav.ParseScale(*f.scale)
		}
	})
	if err != nil {
		return cfg, err
	}
	if *f.units != "" {
		if cfg.UnitsSweep, err = parseUnits(*f.units); err != nil {
			return cfg, err
		}
	}
	if *f.queries > 0 {
		cfg.Queries = *f.queries
	}
	return cfg, nil
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
