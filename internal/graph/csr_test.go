package graph

import (
	"strings"
	"testing"
)

// csrFixture builds a small undirected weighted property graph
// exercising every optional column.
func csrFixture(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(Undirected, 6)
	b.AddWeightedEdge(0, 1, 0.5)
	b.AddWeightedEdge(1, 2, 2)
	b.AddEdgeFull(2, 3, 1, Properties{"ts": Int(7)})
	b.AddEdge(0, 3)
	b.SetVertexProps(0, Properties{"name": String("alice"), "vip": Bool(true)})
	b.SetVertexProps(4, Properties{"photo": Blob(512)})
	b.SetPartition([]int32{0, 0, 1, 1, 2, 2})
	return b.Build()
}

func assertGraphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.Kind() != got.Kind() || want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shape: %v/%d/%d vs %v/%d/%d", want.Kind(), want.NumVertices(), want.NumEdges(),
			got.Kind(), got.NumVertices(), got.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := VertexID(v)
		if want.Degree(id) != got.Degree(id) {
			t.Fatalf("vertex %d degree %d vs %d", v, want.Degree(id), got.Degree(id))
		}
		lo, hi := want.EdgeSlots(id)
		glo, ghi := got.EdgeSlots(id)
		if lo != glo || hi != ghi {
			t.Fatalf("vertex %d slots [%d,%d) vs [%d,%d)", v, lo, hi, glo, ghi)
		}
		for s := lo; s < hi; s++ {
			if want.TargetAt(s) != got.TargetAt(s) || want.LogicalEdge(s) != got.LogicalEdge(s) {
				t.Fatalf("slot %d: (%d,%d) vs (%d,%d)", s,
					want.TargetAt(s), want.LogicalEdge(s), got.TargetAt(s), got.LogicalEdge(s))
			}
		}
		if want.VertexBytes(id) != got.VertexBytes(id) {
			t.Fatalf("vertex %d bytes %d vs %d", v, want.VertexBytes(id), got.VertexBytes(id))
		}
		if want.Partition(id) != got.Partition(id) {
			t.Fatalf("vertex %d partition %d vs %d", v, want.Partition(id), got.Partition(id))
		}
	}
	if want.NumPartitions() != got.NumPartitions() {
		t.Fatalf("partitions %d vs %d", want.NumPartitions(), got.NumPartitions())
	}
	for e := 0; e < want.NumEdges(); e++ {
		if want.Weight(EdgeID(e)) != got.Weight(EdgeID(e)) {
			t.Fatalf("edge %d weight %g vs %g", e, want.Weight(EdgeID(e)), got.Weight(EdgeID(e)))
		}
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	g := csrFixture(t)
	back, err := FromCSR(g.CSRView())
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, g, back)
	if p := back.VertexProps(0).Map(); p["name"].Str() != "alice" || !p["vip"].IsTrue() {
		t.Errorf("vertex props lost: %v", p)
	}
	e := back.FindEdge(2, 3)
	if ep := back.EdgeProps(e).Map(); ep["ts"] != Int(7) {
		t.Errorf("edge props lost: %v", ep)
	}
}

func TestFromCSRRecomputesVertexBytes(t *testing.T) {
	g := csrFixture(t)
	d := g.CSRView()
	d.VBytes = nil
	back, err := FromCSR(d)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.VertexBytes(VertexID(v)) != back.VertexBytes(VertexID(v)) {
			t.Fatalf("vertex %d bytes %d recomputed as %d",
				v, g.VertexBytes(VertexID(v)), back.VertexBytes(VertexID(v)))
		}
	}
}

func TestFromCSREmptyGraph(t *testing.T) {
	g := NewBuilder(Directed, 0).Build()
	back, err := FromCSR(g.CSRView())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != 0 || back.NumEdges() != 0 {
		t.Fatalf("empty graph came back as %d/%d", back.NumVertices(), back.NumEdges())
	}
}

func TestFromCSRRejectsCorruptColumns(t *testing.T) {
	base := func() CSRData { return csrFixture(t).CSRView() }
	cases := []struct {
		name    string
		mutate  func(d *CSRData)
		wantSub string
	}{
		{"bad kind", func(d *CSRData) { d.Kind = Kind(9) }, "kind"},
		{"no offsets", func(d *CSRData) { d.Offsets = nil }, "offsets"},
		{"offsets start nonzero", func(d *CSRData) {
			d.Offsets = append([]int64(nil), d.Offsets...)
			d.Offsets[0] = 1
		}, "offsets[0]"},
		{"offsets decrease", func(d *CSRData) {
			d.Offsets = append([]int64(nil), d.Offsets...)
			d.Offsets[2] = d.Offsets[1] - 1
		}, "offsets decrease"},
		{"offsets open", func(d *CSRData) {
			d.Offsets = append([]int64(nil), d.Offsets...)
			d.Offsets[len(d.Offsets)-1]++
		}, "offsets end"},
		{"negative edges", func(d *CSRData) { d.NumEdges = -1 }, "negative edge count"},
		{"slot mismatch", func(d *CSRData) { d.NumEdges++ }, "slots"},
		{"target out of range", func(d *CSRData) {
			d.Targets = append([]VertexID(nil), d.Targets...)
			d.Targets[0] = 99
		}, "targets"},
		{"target negative", func(d *CSRData) {
			d.Targets = append([]VertexID(nil), d.Targets...)
			d.Targets[0] = -2
		}, "targets"},
		{"targets unsorted", func(d *CSRData) {
			d.Targets = append([]VertexID(nil), d.Targets...)
			// Vertex 0 has neighbors {1, 3}; swapping breaks the order.
			d.Targets[0], d.Targets[1] = d.Targets[1], d.Targets[0]
		}, "not sorted"},
		{"edge index missing", func(d *CSRData) { d.EdgeIdx = nil }, "edge index"},
		{"edge index out of range", func(d *CSRData) {
			d.EdgeIdx = append([]EdgeID(nil), d.EdgeIdx...)
			d.EdgeIdx[0] = EdgeID(d.NumEdges)
		}, "edge index"},
		{"weights mismatch", func(d *CSRData) { d.Weights = d.Weights[:1] }, "weights"},
		{"vprops mismatch", func(d *CSRData) { d.VProps.Index = d.VProps.Index[:2] }, "vertex property rows"},
		{"eprops mismatch", func(d *CSRData) { d.EProps.Index = d.EProps.Index[:1] }, "edge property rows"},
		{"vprops open", func(d *CSRData) { d.VProps.Recs = d.VProps.Recs[:1] }, "vertex property rows"},
		{"eprops without index", func(d *CSRData) { d.EProps.Index = nil }, "edge property rows"},
		{"vbytes mismatch", func(d *CSRData) { d.VBytes = d.VBytes[:1] }, "vertex byte sizes"},
		{"ebytes mismatch", func(d *CSRData) { d.EBytes = d.EBytes[:1] }, "edge byte sizes"},
		{"partition mismatch", func(d *CSRData) { d.Partition = d.Partition[:3] }, "partition"},
		{"partition negative", func(d *CSRData) {
			d.Partition = append([]int32(nil), d.Partition...)
			d.Partition[1] = -4
		}, "partition label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.mutate(&d)
			_, err := FromCSR(d)
			if err == nil {
				t.Fatal("corrupt columns accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestFromCSRDirectedIdentityEdgeIndex(t *testing.T) {
	b := NewBuilder(Directed, 3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	d := g.CSRView()
	if d.EdgeIdx != nil {
		t.Fatal("directed view carries an edge index")
	}
	d.EdgeIdx = []EdgeID{0, 1}
	if _, err := FromCSR(d); err == nil {
		t.Fatal("explicit edge index on a directed graph accepted")
	}
}
