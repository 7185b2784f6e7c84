// Package graph implements the property graph substrate used by the
// balance-affinity scheduler: a compact CSR (compressed sparse row)
// adjacency structure with optional per-vertex and per-edge property
// tables, edge weights, and partition labels.
//
// The representation follows Section II of the paper: a property graph
// G(V, E, Θ) where Θ maps vertices and edges to user-defined property
// maps (schemaless name → value). Because the shared-disk simulator
// charges I/O by serialized record size, every vertex and edge also
// carries an explicit payload byte size; for metadata-style graphs
// (Twitter-like) these are small, for multimedia graphs (image corpus)
// they are large.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex. IDs are dense in [0, NumVertices).
type VertexID int32

// NoVertex is the sentinel "not a vertex" value.
const NoVertex VertexID = -1

// EdgeID identifies a directed edge slot in the CSR arrays. For an
// undirected graph each logical edge occupies two slots (one per
// direction) that share properties.
type EdgeID int32

// NoEdge is the sentinel "not an edge" value.
const NoEdge EdgeID = -1

// Kind distinguishes directed from undirected graphs.
type Kind uint8

const (
	// Directed graphs store exactly the edges given to the builder.
	Directed Kind = iota
	// Undirected graphs store each edge in both directions.
	Undirected
)

func (k Kind) String() string {
	switch k {
	case Directed:
		return "directed"
	case Undirected:
		return "undirected"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Graph is an immutable property graph in CSR form. Build one with a
// Builder. All read methods are safe for concurrent use.
type Graph struct {
	kind Kind

	// CSR adjacency: the out-neighbors of v are
	// targets[offsets[v]:offsets[v+1]].
	offsets []int64
	targets []VertexID

	// edgeIdx maps a CSR slot to the logical edge index that owns the
	// properties/weight. For directed graphs it is the identity; for
	// undirected graphs both directions of one edge map to the same
	// logical index. nil means identity.
	edgeIdx []EdgeID

	// Number of logical edges (undirected edges counted once).
	numEdges int

	// Optional edge weights, indexed by logical edge index.
	weights []float32

	// Property tables in flat form (zero when absent) and the string
	// arena both point into. Nothing is held per entity.
	vprops PropColumn
	eprops PropColumn
	arena  string

	// Serialized payload sizes used by the storage cost model.
	vbytes []int32
	ebytes []int32

	// Partition label per vertex (-1 when unpartitioned).
	part          []int32
	numPartitions int
}

// Kind reports whether the graph is directed or undirected.
func (g *Graph) Kind() Kind { return g.kind }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of logical edges (an undirected edge
// counts once even though it occupies two CSR slots).
func (g *Graph) NumEdges() int { return g.numEdges }

// Valid reports whether v is a vertex of the graph.
func (g *Graph) Valid(v VertexID) bool {
	return v >= 0 && int(v) < g.NumVertices()
}

// Degree returns the out-degree of v (for undirected graphs, the
// number of incident edges).
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v as a shared slice view.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// EdgeSlots returns the CSR slot range [lo, hi) of v's out-edges.
// Slot s targets vertex TargetAt(s) with logical edge LogicalEdge(s).
func (g *Graph) EdgeSlots(v VertexID) (lo, hi int64) {
	return g.offsets[v], g.offsets[v+1]
}

// TargetAt returns the head vertex of CSR slot s.
func (g *Graph) TargetAt(s int64) VertexID { return g.targets[s] }

// LogicalEdge maps CSR slot s to the logical edge index owning its
// weight and properties.
func (g *Graph) LogicalEdge(s int64) EdgeID {
	if g.edgeIdx == nil {
		return EdgeID(s)
	}
	return g.edgeIdx[s]
}

// HasWeights reports whether edge weights were supplied.
func (g *Graph) HasWeights() bool { return g.weights != nil }

// Weight returns the weight of logical edge e, or 1 if the graph is
// unweighted.
func (g *Graph) Weight(e EdgeID) float32 {
	if g.weights == nil {
		return 1
	}
	return g.weights[e]
}

// FindEdge returns the logical edge from v to u, or NoEdge if absent.
// Cost is O(Degree(v)).
func (g *Graph) FindEdge(v, u VertexID) EdgeID {
	lo, hi := g.EdgeSlots(v)
	for s := lo; s < hi; s++ {
		if g.targets[s] == u {
			return g.LogicalEdge(s)
		}
	}
	return NoEdge
}

// VertexProps returns a view of v's properties, empty when the graph
// has no vertex properties or v has none.
func (g *Graph) VertexProps(v VertexID) Props { return g.vprops.of(int(v), g.arena) }

// EdgeProps returns a view of logical edge e's properties.
func (g *Graph) EdgeProps(e EdgeID) Props { return g.eprops.of(int(e), g.arena) }

// VertexBytes returns the serialized size of v's record as stored on
// the shared disk: vertex header, vertex properties, and the adjacency
// list with inline edge properties — one contiguous fetch. It is at
// least vertexBaseBytes.
func (g *Graph) VertexBytes(v VertexID) int32 {
	if g.vbytes == nil {
		return vertexBaseBytes
	}
	return g.vbytes[v]
}

// EdgeBytes returns the serialized payload size of logical edge e.
func (g *Graph) EdgeBytes(e EdgeID) int32 {
	if g.ebytes == nil {
		return edgeBaseBytes
	}
	return g.ebytes[e]
}

// Partition returns the partition label of v, or -1 when the graph is
// unpartitioned.
func (g *Graph) Partition(v VertexID) int32 {
	if g.part == nil {
		return -1
	}
	return g.part[v]
}

// NumPartitions returns the number of partition labels, or 0 when the
// graph is unpartitioned.
func (g *Graph) NumPartitions() int { return g.numPartitions }

// Minimum serialized record sizes: a bare vertex or edge still costs a
// key, adjacency pointers and bookkeeping when loaded from the shared
// disk.
const (
	vertexBaseBytes = 64
	edgeBaseBytes   = 16
)

// Stats summarizes the degree distribution of a graph; used by tests
// and by the generators to verify topology (power-law vs uniform).
type Stats struct {
	NumVertices int
	NumEdges    int
	MinDegree   int
	MaxDegree   int
	MeanDegree  float64
	// DegreeVariance is the population variance of the out-degree.
	DegreeVariance float64
	// Gini is the Gini coefficient of the degree distribution in
	// [0, 1]; ~0 for regular graphs, large for power-law graphs.
	Gini float64
}

// ComputeStats scans the graph and returns degree statistics.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	st := Stats{NumVertices: n, NumEdges: g.NumEdges(), MinDegree: math.MaxInt}
	if n == 0 {
		st.MinDegree = 0
		return st
	}
	degs := make([]int, n)
	var sum float64
	for v := 0; v < n; v++ {
		d := g.Degree(VertexID(v))
		degs[v] = d
		sum += float64(d)
		if d < st.MinDegree {
			st.MinDegree = d
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
	}
	st.MeanDegree = sum / float64(n)
	var varSum float64
	for _, d := range degs {
		diff := float64(d) - st.MeanDegree
		varSum += diff * diff
	}
	st.DegreeVariance = varSum / float64(n)
	st.Gini = giniOfInts(degs)
	return st
}

// giniOfInts computes the Gini coefficient of non-negative integers.
func giniOfInts(xs []int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, xs)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, x := range sorted {
		cum += float64(x)
		weighted += float64(i+1) * float64(x)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}
