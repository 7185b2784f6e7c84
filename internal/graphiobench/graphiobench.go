// Package graphiobench is the graph-loading benchmark suite: its
// fixtures and the one table of cells (Table) that both `go test
// -bench` and `subtrav-bench graphio` run on internal/benchkit.
//
// The suite compares the two on-disk snapshot formats end to end: the
// version-1 gob encoding, which rebuilds the graph edge by edge
// through the Builder and allocates per vertex and per edge, and the
// version-2 flat binary CSR snapshot, which validates checksums and
// serves its columns — the property tables included — as slices
// aliasing the input buffer. Each cell measures decode latency
// (time-to-first-query), allocations and bytes churned, the Load cells
// also the heap the decoded graph retains. The wall-clock numbers are
// printed, not committed (README, "Performance", names the
// BENCHMARK.json metrics that track the v2 load); what is gated is a
// count, on both mid-size Load cells: MinAllocRatio× fewer allocations
// than gob, and at most MaxCSRAllocs of them.
package graphiobench

import (
	"bytes"
	"fmt"

	"subtrav/internal/benchkit"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/graphio"
	"subtrav/internal/partition"
)

// Sizes is the tracked vertex-count axis. MidSize is the cell the
// acceptance thresholds are checked against.
var Sizes = []int{4096, 32768}

// MidSize is the mid-size fixture (see Sizes).
const MidSize = 32768

// Degree is the fixture's average degree.
const Degree = 16

// Seed pins fixture generation.
const Seed = 0x6C0ADB19

// Metas is the tracked metadata axis. The plain fixture is structure,
// weights and partition; the meta fixture adds a property set on every
// vertex and every edge, which gob rebuilds map by map and the v2
// format serves from three more aliased sections.
var Metas = []bool{false, true}

// Fixture is one reproducible loading workload: a seeded power-law
// social graph with computed partition labels — optionally carrying
// full vertex and edge metadata — encoded once in each format.
type Fixture struct {
	V     int
	Meta  bool
	Graph *graph.Graph

	Gob []byte // version-1 encoding of Graph
	CSR []byte // version-2 encoding of Graph
}

// NewFixture builds the workload for v vertices.
func NewFixture(v int, meta bool) (*Fixture, error) {
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: v,
		NumEdges:    v * Degree / 2,
		Exponent:    2.3,
		Kind:        graph.Undirected,
		Seed:        Seed,
		VertexMeta:  meta,
	})
	if err != nil {
		return nil, fmt.Errorf("graphiobench: fixture: %w", err)
	}
	part, err := partition.Compute(g, partition.Config{NumPartitions: 8, Seed: Seed + 1})
	if err != nil {
		return nil, fmt.Errorf("graphiobench: fixture partition: %w", err)
	}
	g = partition.Apply(g, part.Labels)

	var gobBuf, csrBuf bytes.Buffer
	if err := graphio.Write(&gobBuf, g); err != nil {
		return nil, fmt.Errorf("graphiobench: gob encode: %w", err)
	}
	if err := graphio.WriteCSR(&csrBuf, g); err != nil {
		return nil, fmt.Errorf("graphiobench: csr encode: %w", err)
	}
	return &Fixture{V: v, Meta: meta, Graph: g, Gob: gobBuf.Bytes(), CSR: csrBuf.Bytes()}, nil
}

// LoadGob decodes the v1 snapshot; the return is the loaded graph so
// benchmarks keep it live.
func (fx *Fixture) LoadGob() (*graph.Graph, error) {
	return graphio.Read(bytes.NewReader(fx.Gob))
}

// LoadCSR decodes the v2 snapshot zero-copy from the in-memory buffer.
func (fx *Fixture) LoadCSR() (*graph.Graph, error) {
	return graphio.ReadCSR(fx.CSR)
}

// FirstQuery is the query part of time-to-first-query: a full
// adjacency sweep touching every vertex's neighbor list, the access
// pattern of a traversal kernel's first frontier expansion. The
// checksum defeats dead-code elimination.
func FirstQuery(g *graph.Graph) int64 {
	var sum int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			sum += int64(u)
		}
	}
	return sum
}

// MinAllocRatio is the floor on gob÷csr allocs/op for the mid-size
// Load cells, with and without metadata.
const MinAllocRatio = 10

// MaxCSRAllocs is the ceiling on allocs/op for the same two csr cells:
// a v2 load allocates the graph header and O(sections) scratch, never
// per vertex, edge or property.
const MaxCSRAllocs = 4

// at names one (size, meta) fixture coordinate.
func at(v int, meta bool) string {
	if meta {
		return fmt.Sprintf("V=%d/meta=on", v)
	}
	return fmt.Sprintf("V=%d/meta=off", v)
}

// cells is the fixture's slice of the table: decode alone (Load) and
// decode plus the first adjacency sweep (FirstQuery), each through the
// v1 gob path — the baseline — and the v2 flat-CSR path. The Load cells
// also report the heap the decoded graph retains: for gob the fully
// materialized column set; for csr the columns alias the snapshot
// buffer, so only the graph header counts.
func (fx *Fixture) cells() []benchkit.Cell {
	var cells []benchkit.Cell
	for _, sweep := range []bool{false, true} {
		op := "Load"
		if sweep {
			op = "FirstQuery"
		}
		cell := func(format string, load func() (*graph.Graph, error)) benchkit.Cell {
			c := benchkit.Cell{Name: op + "/" + format + "/" + at(fx.V, fx.Meta), Run: func() error {
				g, err := load()
				if err == nil && sweep {
					FirstQuery(g)
				}
				return err
			}}
			if !sweep {
				c.Retained = func() (any, error) { return load() }
			}
			return c
		}
		gob, csr := cell("gob", fx.LoadGob), cell("csr", fx.LoadCSR)
		gob.Versus = csr.Name
		if !sweep && fx.V == MidSize {
			gob.Floor.Allocs = MinAllocRatio
			csr.MaxAllocs = MaxCSRAllocs
		}
		cells = append(cells, gob, csr)
	}
	return cells
}

// Table is the suite's one table of cells, a group per (size, meta)
// fixture.
func Table() []benchkit.Group {
	var table []benchkit.Group
	for _, v := range Sizes {
		for _, meta := range Metas {
			table = append(table, func() ([]benchkit.Cell, error) {
				fx, err := NewFixture(v, meta)
				if err != nil {
					return nil, err
				}
				return fx.cells(), nil
			})
		}
	}
	return table
}

// Run executes the suite: smoke runs every cell once (CI), a full run
// calibrates iteration counts and interleaves the gob↔csr pairs.
func Run(smoke bool, logf func(format string, args ...any)) (*benchkit.Report, error) {
	return benchkit.Run("graphio", smoke, Table(), logf)
}
