// Command subtrav-bench regenerates the paper's evaluation figures
// (Figures 8-12), the ablations and the extension studies on the
// shared-disk simulator, printing each as an aligned text table (or
// markdown/CSV).
//
// Usage:
//
//	subtrav-bench [flags] <experiment>
//
// where <experiment> is a figure or study (see studies), or "all" for
// every one of those — deterministic, checked in as
// experiments_output.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
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
		for _, st := range studies {
			names = append(names, st.name)
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
	{"share", one(experiments.Share)},
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

// formats are the -format values main accepts.
var formats = []string{"text", "markdown", "csv"}

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
