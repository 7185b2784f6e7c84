// Command graphgen generates the synthetic evaluation datasets and
// saves them as graph files, or prints statistics of an existing file.
//
// Usage:
//
//	graphgen -type powerlaw -scale small -seed 42 -out twitter.csr
//	graphgen -type random   -scale small -seed 42 -out random.csr
//	graphgen -info twitter.csr
//
// Graphs are written as flat binary CSR snapshots (internal/graphio),
// which load with one read or mmap. -info refuses any other file.
package main

import (
	"flag"
	"fmt"
	"os"

	"subtrav"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
)

func main() {
	var (
		typ   = flag.String("type", "powerlaw", "graph type: powerlaw, random")
		scale = flag.String("scale", "small", "scale: tiny, small, medium, large, paper")
		seed  = flag.Uint64("seed", 42, "random seed")
		out   = flag.String("out", "", "output file (required unless -info)")
		info  = flag.String("info", "", "print statistics of an existing graph file and exit")
	)
	flag.Parse()

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

	sc, err := subtrav.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}

	var g *graph.Graph
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
	if err := graphio.WriteCSRFile(*out, g); err != nil {
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
