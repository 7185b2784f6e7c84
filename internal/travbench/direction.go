package travbench

import (
	"subtrav/internal/benchkit"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/traverse"
)

// The direction matrix: the evidence that the direction-optimizing
// traversal pays for itself. Hub-heavy graphs — uncapped power-law,
// whose mega-hub turns mid-traversal frontiers dense — run BFS and SSSP
// under Auto, ForcePush and ForcePull, and the standard hub-capped
// graph doubles as the no-regression guard: Auto must win big where
// pulls are cheap and must not lose where they aren't.
//
// Its wall-clock floors bind the median of each interleaved ratio under
// `subtrav-bench -check traverse`. They are restated from the bands
// EXPERIMENTS.md logs ("Direction matrix"), not chosen: each is 0.8 ×
// the lowest first quartile any of the twenty calibration runs measured
// for its cell, rounded down to 0.05, so it sits outside that cell's
// band.
const (
	// MinParity is the push÷auto floor of the eight cells where the two
	// run level (a misfiring heuristic loses several-fold, not 20 %).
	MinParity = 0.5
	// MinOverPull is the pull÷auto floor of all twelve cells: forced
	// pull pays its full in-edge scan every wave; Auto must stay ahead.
	MinOverPull = 1.05
)

// autoWins holds the push÷auto floors of the cells where Auto
// measurably beats forced push, keyed by op and coordinate.
var autoWins = map[string]float64{
	"BFS/V=4096/deg=32": 1.7, "HubBFS/V=4096/deg=32": 2.1,
	"BFS/V=32768/deg=32": 2.0, "HubBFS/V=32768/deg=32": 1.65,
}

// DirExponent is the hub fixture's degree exponent: close enough to 2
// that, uncapped, the largest hub is adjacent to a sizable fraction of
// the graph.
const DirExponent = 2.01

// hubGraph generates the hub-heavy direction workload: a power-law
// graph without the structural degree cutoff, traversed from its
// mega-hub so the second wave's frontier carries most of the edge mass
// — the regime where a bottom-up sweep of the shrinking unvisited set
// beats scanning the frontier's out-edges.
func hubGraph(v, degree int) (*graph.Graph, error) {
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: v,
		NumEdges:    v * degree / 2,
		Exponent:    DirExponent,
		Kind:        graph.Undirected,
		Seed:        Seed + 3,
		MaxDegree:   -1, // no structural cutoff: keep the mega-hub
	})
	if err == nil {
		// Materialize the reverse CSR up front: the pull kernels'
		// one-time index build is not what these cells measure.
		g.In()
	}
	return g, err
}

// directionCells returns one (size, degree) coordinate's slice of the
// direction matrix. On the standard hub-capped graph the BFS/ws cell of
// the kernel table already runs the default Auto policy, so only the
// forced modes are added and compared with it; on the hub-heavy graph
// HubBFS and HubSSSP run under all three policies. Every forced cell is
// the baseline of its Auto cell: push÷auto and pull÷auto above 1 mean
// Auto is the faster side.
func (fx *Fixture) directionCells(at string) []benchkit.Cell {
	ops := []struct {
		name, auto string // auto: an Auto cell the table already has
		run        func(traverse.Direction)
	}{
		{"BFS", "BFS/ws/" + at, func(m traverse.Direction) {
			q := fx.BFSQ
			q.Dir.Mode = m
			fx.WS.BFS(fx.Social, q)
		}},
		{"HubBFS", "", func(m traverse.Direction) {
			q := fx.HubBFSQ
			q.Dir.Mode = m
			fx.HubWS.BFS(fx.Hub, q)
		}},
		{"HubSSSP", "", func(m traverse.Direction) {
			q := fx.HubSSSPQ
			q.Dir.Mode = m
			fx.HubWS.BoundedSSSP(fx.Hub, q)
		}},
	}
	var cells []benchkit.Cell
	for _, op := range ops {
		mode := func(name string, m traverse.Direction) benchkit.Cell {
			c := cell(op.name+"/"+name+"/"+at, func() { op.run(m) })
			c.NoAlloc = true
			return c
		}
		if op.auto == "" {
			auto := mode("auto", traverse.DirAuto)
			op.auto = auto.Name
			cells = append(cells, auto)
		}
		push, pull := mode("push", traverse.DirForcePush), mode("pull", traverse.DirForcePull)
		push.Versus, pull.Versus = op.auto, op.auto
		push.Floor.Ns, pull.Floor.Ns = MinParity, MinOverPull
		if floor, ok := autoWins[op.name+"/"+at]; ok {
			push.Floor.Ns = floor
		}
		cells = append(cells, push, pull)
	}
	return cells
}
