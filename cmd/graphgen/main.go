// Command graphgen generates the synthetic evaluation datasets and
// saves them as graph files, or prints statistics of an existing file.
//
// Usage:
//
//	graphgen -type powerlaw -scale small -seed 42 -out twitter.g
//	graphgen -type random   -scale small -seed 42 -out random.g
//	graphgen -info twitter.g
//
// Graphs are written in the version-2 flat binary CSR format by
// default (-format csr), which loads with one read or mmap; pass
// -format gob for the version-1 encoding. -info auto-detects the
// format by magic, so files from either version open transparently.
package main

import (
	"flag"
	"fmt"
	"os"

	"subtrav"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/partition"
)

func main() {
	var (
		typ        = flag.String("type", "powerlaw", "graph type: powerlaw, random")
		scale      = flag.String("scale", "small", "scale: tiny, small, medium, large, paper")
		seed       = flag.Uint64("seed", 42, "random seed")
		out        = flag.String("out", "", "output file (required unless -info)")
		info       = flag.String("info", "", "print statistics of an existing graph file and exit")
		partitions = flag.Int("partitions", 0, "compute this many balanced partitions and attach labels")
		format     = flag.String("format", "csr", "output format: csr (v2 flat binary, default), gob (v1)")
	)
	flag.Parse()

	writeGraph := func(path string, g *graph.Graph) error {
		switch *format {
		case "csr":
			return graphio.WriteCSRFile(path, g)
		case "gob":
			return graphio.WriteFile(path, g)
		default:
			return fmt.Errorf("unknown format %q (want csr or gob)", *format)
		}
	}

	if *info != "" {
		g, err := graphio.ReadGraphFile(*info)
		if err != nil {
			fatal(err)
		}
		printStats(*info, g)
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	var sc subtrav.Scale
	switch *scale {
	case "tiny":
		sc = subtrav.ScaleTiny
	case "small":
		sc = subtrav.ScaleSmall
	case "medium":
		sc = subtrav.ScaleMedium
	case "large":
		sc = subtrav.ScaleLarge
	case "paper":
		sc = subtrav.ScalePaper
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}

	var (
		g   *graph.Graph
		err error
	)
	switch *typ {
	case "powerlaw":
		g, err = subtrav.TwitterLike(sc, *seed)
	case "random":
		g, err = subtrav.RandomGraph(sc, *seed)
	default:
		err = fmt.Errorf("unknown type %q", *typ)
	}
	if err != nil {
		fatal(err)
	}
	if *partitions > 0 {
		res, err := partition.Compute(g, partition.Config{NumPartitions: *partitions, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		g = partition.Apply(g, res.Labels)
		fmt.Printf("partitioned into %d parts, edge cut %.1f%%\n", *partitions, 100*res.CutFraction)
	}
	if err := writeGraph(*out, g); err != nil {
		fatal(err)
	}
	printStats(*out, g)
}

func printStats(name string, g *graph.Graph) {
	st := graph.ComputeStats(g)
	fmt.Printf("%s: %s graph, %d vertices, %d edges\n", name, g.Kind(), st.NumVertices, st.NumEdges)
	fmt.Printf("  degree: min %d, mean %.1f, max %d, gini %.3f\n",
		st.MinDegree, st.MeanDegree, st.MaxDegree, st.Gini)
	if g.NumPartitions() > 0 {
		fmt.Printf("  partitions: %d\n", g.NumPartitions())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
