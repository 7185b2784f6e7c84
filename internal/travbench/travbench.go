// Package travbench is the traversal-kernel benchmark suite: its
// fixtures and the one table of cells (Table) that both `go test
// -bench` and `subtrav-bench traverse` run on internal/benchkit. The
// fixtures pin every source of randomness to a seed, so two runs on
// the same machine measure the same work.
//
// The suite covers all four traversal engines — bounded BFS,
// bidirectional bounded SSSP, collaborative filtering, random walk
// with restart — in both implementations: the Workspace kernels
// (dense epoch-stamped scratch, ring frontier, pooled outputs) and the
// map-based reference kernels kept as the executable spec. The ws↔ref
// ratios are printed, not committed (README, "Performance", names the
// BENCHMARK.json metrics that track the kernels), and gated by count: 0
// allocs/op on every workspace cell, MinAllocRatio× fewer than the
// reference on mid-size BFS.
package travbench

import (
	"fmt"

	"subtrav/internal/benchkit"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/traverse"
)

// Sizes is the tracked vertex-count axis. MidSize is the cell the
// acceptance thresholds are checked against.
var Sizes = []int{4096, 32768}

// MidSize is the mid-size fixture (see Sizes).
const MidSize = 32768

// Degrees is the tracked average-degree axis.
var Degrees = []int{8, 32}

// Seed pins fixture generation.
const Seed = 0x7A4E57B1

// Fixture is one reproducible kernel workload: a seeded power-law
// social graph (BFS, SSSP, RWR) and a purchase bipartite graph of the
// same scale (CollabFilter), each with a reusable Workspace and the
// query of each op.
type Fixture struct {
	Social    *graph.Graph
	Purchases *graphgen.PurchaseGraph

	WS, WSBip        *traverse.Workspace
	BFSQ, SSSPQ      traverse.Query
	CollabQ, RandomQ traverse.Query
}

// hubQueries returns a social graph's BFS and SSSP queries. Both start
// at its highest-degree vertex, so the kernels traverse dense
// neighborhoods rather than degenerate leaves; the SSSP target is the
// vertex numerically farthest from the hub, which keeps both frontiers
// expanding for several hops.
func hubQueries(g *graph.Graph) (bfs, sssp traverse.Query) {
	hub := graph.VertexID(0)
	for u := 0; u < g.NumVertices(); u++ {
		if g.Degree(graph.VertexID(u)) > g.Degree(hub) {
			hub = graph.VertexID(u)
		}
	}
	target := graph.VertexID(g.NumVertices() - 1)
	if target == hub {
		target = 0
	}
	return traverse.Query{Op: traverse.OpBFS, Start: hub, Depth: 4},
		traverse.Query{Op: traverse.OpSSSP, Start: hub, Target: target, Depth: 6}
}

// NewFixture builds the workload for v vertices at the given average
// degree.
func NewFixture(v, degree int) (*Fixture, error) {
	social, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: v,
		NumEdges:    v * degree / 2,
		Exponent:    2.3,
		Kind:        graph.Undirected,
		Seed:        Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("travbench: social fixture: %w", err)
	}
	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers:             v / 2,
		NumProducts:              v / 2,
		PurchasesPerCustomerMean: float64(degree),
		PopularityExponent:       2.3,
		Seed:                     Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("travbench: purchase fixture: %w", err)
	}
	// The busiest product drives the widest two-hop collab traversal.
	prod := bip.ProductVertex(0)
	for i := 0; i < bip.NumProducts; i++ {
		if p := bip.ProductVertex(i); bip.Graph.Degree(p) > bip.Graph.Degree(prod) {
			prod = p
		}
	}
	fx := &Fixture{
		Social:    social,
		Purchases: bip,
		WS:        traverse.NewWorkspace(social.NumVertices()),
		WSBip:     traverse.NewWorkspace(bip.Graph.NumVertices()),
		CollabQ:   traverse.Query{Op: traverse.OpCollab, Start: prod, SimilarityThreshold: 0.1},
	}
	fx.BFSQ, fx.SSSPQ = hubQueries(social)
	fx.RandomQ = traverse.Query{Op: traverse.OpRWR, Start: fx.BFSQ.Start, Steps: 2000, RestartProb: 0.15, TopK: 20, Seed: Seed + 2}
	return fx, nil
}

// MinAllocRatio is the floor on reference÷workspace allocs/op for the
// mid-size BFS cells (the workspace side is floored at 1 alloc/op).
const MinAllocRatio = 10

// cell wraps a kernel closure, which cannot fail, as a table cell.
func cell(name string, run func()) benchkit.Cell {
	return benchkit.Cell{Name: name, Run: func() error { run(); return nil }}
}

// kernelCells returns the four engines in both implementations, each
// reference kernel the baseline of its workspace kernel.
func (fx *Fixture) kernelCells(v int, at string) []benchkit.Cell {
	var cells []benchkit.Cell
	pair := func(op string, ws, ref func()) {
		w, r := cell(op+"/ws/"+at, ws), cell(op+"/ref/"+at, ref)
		w.NoAlloc, r.Versus = true, w.Name
		if op == "BFS" && v == MidSize {
			r.Floor.Allocs = MinAllocRatio
		}
		cells = append(cells, w, r)
	}
	pair("BFS", func() { fx.WS.BFS(fx.Social, fx.BFSQ) },
		func() { traverse.BFSReference(fx.Social, fx.BFSQ) })
	pair("SSSP", func() { fx.WS.BoundedSSSP(fx.Social, fx.SSSPQ) },
		func() { traverse.BoundedSSSPReference(fx.Social, fx.SSSPQ) })
	pair("Collab", func() { fx.WSBip.CollabFilter(fx.Purchases.Graph, fx.CollabQ) },
		func() { traverse.CollabFilterReference(fx.Purchases.Graph, fx.CollabQ) })
	pair("RWR", func() { fx.WS.RandomWalk(fx.Social, fx.RandomQ) },
		func() { traverse.RandomWalkReference(fx.Social, fx.RandomQ) })
	return cells
}

// Table is the suite's one table of cells, a group per (size, degree).
func Table() []benchkit.Group {
	var table []benchkit.Group
	for _, v := range Sizes {
		for _, deg := range Degrees {
			table = append(table, func() ([]benchkit.Cell, error) {
				fx, err := NewFixture(v, deg)
				if err != nil {
					return nil, err
				}
				return fx.kernelCells(v, fmt.Sprintf("V=%d/deg=%d", v, deg)), nil
			})
		}
	}
	return table
}

// Run executes the suite: smoke runs every cell once (CI), a full run
// calibrates iteration counts and interleaves every pair.
func Run(smoke bool, logf func(format string, args ...any)) (*benchkit.Report, error) {
	return benchkit.Run("traverse", smoke, Table(), logf)
}
