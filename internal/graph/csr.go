package graph

import (
	"fmt"
	"math"
)

// CSRData is the raw columnar form of a Graph: the exact parallel
// slices its accessors serve from. It is the interchange type between
// this package and flat on-disk snapshots (internal/graphio's v2 CSR
// format): CSRView exposes a graph's columns without copying, and
// FromCSR assembles a Graph around existing columns — for example
// slices aliasing a file read into one buffer or mapped into memory —
// again without copying.
//
// Ownership: both directions borrow. A CSRData obtained from CSRView
// aliases the graph's internals and must not be mutated; a Graph built
// by FromCSR aliases the caller's slices, which must stay immutable
// (and mapped, for mmap-backed data) for the graph's lifetime.
type CSRData struct {
	Kind Kind

	// NumEdges is the logical edge count (an undirected edge counts
	// once even though it occupies two CSR slots).
	NumEdges int

	// Offsets has NumVertices+1 entries; the out-neighbors of v are
	// Targets[Offsets[v]:Offsets[v+1]], sorted by target.
	Offsets []int64
	Targets []VertexID

	// EdgeIdx maps each CSR slot to its logical edge. nil means
	// identity (directed graphs); required for undirected graphs with
	// at least one edge.
	EdgeIdx []EdgeID

	// Weights is indexed by logical edge; nil when unweighted.
	Weights []float32

	// Property tables (zero when absent) over one shared string Arena:
	// VProps by vertex, EProps by logical edge. FromCSR checks their
	// shape only; PropColumn's record invariants are the producer's
	// contract (Builder packs them so, graphio verifies every record of
	// a file before it calls FromCSR).
	VProps PropColumn
	EProps PropColumn
	Arena  string

	// Serialized record sizes for the storage cost model. VBytes may
	// be nil, in which case FromCSR recomputes it; EBytes may be nil
	// when no edge properties exist.
	VBytes []int32
	EBytes []int32

	// Partition labels (one per vertex, dense in [0, numPartitions));
	// nil when unpartitioned.
	Partition []int32
}

// CSRView returns the graph's raw columns without copying. The
// returned slices alias the graph's internals: callers must treat them
// as read-only.
func (g *Graph) CSRView() CSRData {
	return CSRData{
		Kind:      g.kind,
		NumEdges:  g.numEdges,
		Offsets:   g.offsets,
		Targets:   g.targets,
		EdgeIdx:   g.edgeIdx,
		Weights:   g.weights,
		VProps:    g.vprops,
		EProps:    g.eprops,
		Arena:     g.arena,
		VBytes:    g.vbytes,
		EBytes:    g.ebytes,
		Partition: g.part,
	}
}

// FromCSR assembles a Graph directly around the given columns without
// copying or re-sorting them, validating every structural invariant a
// Builder-built graph guarantees (offsets monotone and closed over the
// target array, targets in range and sorted per vertex, logical edge
// indices in range, parallel arrays consistently sized; for the
// property tables see CSRData). It is the load path for untrusted
// on-disk snapshots, so violations surface as errors, never panics.
func FromCSR(d CSRData) (*Graph, error) {
	if d.Kind != Directed && d.Kind != Undirected {
		return nil, fmt.Errorf("graph: csr kind %d invalid", d.Kind)
	}
	if len(d.Offsets) == 0 {
		return nil, fmt.Errorf("graph: csr offsets empty, need NumVertices+1 entries")
	}
	n := len(d.Offsets) - 1
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: csr offsets imply %d vertices, beyond the int32 vertex space", n)
	}
	if d.NumEdges < 0 {
		return nil, fmt.Errorf("graph: csr negative edge count %d", d.NumEdges)
	}
	slots := int64(len(d.Targets))
	if d.Offsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr offsets[0] = %d, want 0", d.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if d.Offsets[v+1] < d.Offsets[v] {
			return nil, fmt.Errorf("graph: csr offsets decrease at vertex %d (%d -> %d)",
				v, d.Offsets[v], d.Offsets[v+1])
		}
	}
	if d.Offsets[n] != slots {
		return nil, fmt.Errorf("graph: csr offsets end at %d, want the %d targets", d.Offsets[n], slots)
	}

	switch d.Kind {
	case Directed:
		if d.EdgeIdx != nil {
			return nil, fmt.Errorf("graph: csr edge index present on a directed graph")
		}
		if int64(d.NumEdges) != slots {
			return nil, fmt.Errorf("graph: csr %d slots for %d directed edges", slots, d.NumEdges)
		}
	case Undirected:
		if 2*int64(d.NumEdges) != slots {
			return nil, fmt.Errorf("graph: csr %d slots for %d undirected edges, want %d",
				slots, d.NumEdges, 2*int64(d.NumEdges))
		}
		if slots > 0 && int64(len(d.EdgeIdx)) != slots {
			return nil, fmt.Errorf("graph: csr edge index has %d entries for %d slots", len(d.EdgeIdx), slots)
		}
	}

	for v := 0; v < n; v++ {
		lo, hi := d.Offsets[v], d.Offsets[v+1]
		for s := lo; s < hi; s++ {
			t := d.Targets[s]
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("graph: csr targets[%d] = %d out of range [0,%d)", s, t, n)
			}
			if s > lo && t < d.Targets[s-1] {
				return nil, fmt.Errorf("graph: csr targets of vertex %d not sorted at slot %d", v, s)
			}
		}
	}
	for s, e := range d.EdgeIdx {
		if e < 0 || int(e) >= d.NumEdges {
			return nil, fmt.Errorf("graph: csr edge index[%d] = %d out of range [0,%d)", s, e, d.NumEdges)
		}
	}

	if d.Weights != nil && len(d.Weights) != d.NumEdges {
		return nil, fmt.Errorf("graph: csr %d weights for %d edges", len(d.Weights), d.NumEdges)
	}
	if err := d.VProps.checkShape(n, "vertex property rows", "vertices"); err != nil {
		return nil, err
	}
	if err := d.EProps.checkShape(d.NumEdges, "edge property rows", "edges"); err != nil {
		return nil, err
	}
	if d.VBytes != nil && len(d.VBytes) != n {
		return nil, fmt.Errorf("graph: csr %d vertex byte sizes for %d vertices", len(d.VBytes), n)
	}
	if d.EBytes != nil && len(d.EBytes) != d.NumEdges {
		return nil, fmt.Errorf("graph: csr %d edge byte sizes for %d edges", len(d.EBytes), d.NumEdges)
	}

	g := &Graph{
		kind:     d.Kind,
		offsets:  d.Offsets,
		targets:  d.Targets,
		edgeIdx:  d.EdgeIdx,
		numEdges: d.NumEdges,
		weights:  d.Weights,
		vprops:   d.VProps,
		eprops:   d.EProps,
		arena:    d.Arena,
		vbytes:   d.VBytes,
		ebytes:   d.EBytes,
	}

	if d.Partition != nil {
		if len(d.Partition) != n {
			return nil, fmt.Errorf("graph: csr %d partition labels for %d vertices", len(d.Partition), n)
		}
		maxLabel := int32(-1)
		for v, l := range d.Partition {
			if l < 0 {
				return nil, fmt.Errorf("graph: csr partition label %d of vertex %d negative", l, v)
			}
			if l > maxLabel {
				maxLabel = l
			}
		}
		g.part = d.Partition
		g.numPartitions = int(maxLabel) + 1
	}

	if g.vbytes == nil {
		g.vbytes = g.computeVertexBytes()
	}
	return g, nil
}

// checkShape verifies that the column, when present, indexes exactly n
// entities and spans all of Recs.
func (c PropColumn) checkShape(n int, rows, entities string) error {
	switch {
	case c.Index == nil && len(c.Recs) == 0:
	case len(c.Index) != n+1:
		return fmt.Errorf("graph: csr %s: %d index entries for %d %s", rows, len(c.Index), n, entities)
	case c.Index[0] != 0 || uint64(c.Index[n]) != uint64(len(c.Recs)):
		return fmt.Errorf("graph: csr %s span records [%d,%d), want all %d", rows, c.Index[0], c.Index[n], len(c.Recs))
	}
	return nil
}

// clampBytes fits a serialized size into the int32 size columns.
func clampBytes(bytes int64) int32 {
	if bytes > maxRecordBytes {
		return maxRecordBytes
	}
	return int32(bytes)
}

// computeEdgeBytes derives the per-edge serialized payload sizes from
// the edge property column.
func (g *Graph) computeEdgeBytes() []int32 {
	out := make([]int32, g.numEdges)
	for e := range out {
		out[e] = clampBytes(edgeBaseBytes + int64(g.EdgeProps(EdgeID(e)).SerializedBytes()))
	}
	return out
}

// computeVertexBytes derives the per-vertex serialized record sizes —
// vertex header, vertex properties, adjacency list with inline edge
// payloads — from an otherwise fully assembled graph. Shared by
// Builder.Build and FromCSR so both construction paths price records
// identically.
func (g *Graph) computeVertexBytes() []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		bytes := vertexBaseBytes + int64(g.VertexProps(VertexID(v)).SerializedBytes())
		lo, hi := g.offsets[v], g.offsets[v+1]
		for s := lo; s < hi; s++ {
			if g.ebytes != nil {
				e := s
				if g.edgeIdx != nil {
					e = int64(g.edgeIdx[s])
				}
				bytes += int64(g.ebytes[e])
			} else {
				bytes += edgeBaseBytes
			}
		}
		out[v] = clampBytes(bytes)
	}
	return out
}
