package graphio

import (
	"bytes"
	"path/filepath"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func assertSameStructure(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Kind() != b.Kind() || a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape: %v/%d/%d vs %v/%d/%d",
			a.Kind(), a.NumVertices(), a.NumEdges(), b.Kind(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(graph.VertexID(v)), b.Neighbors(graph.VertexID(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbor %d: %d vs %d", v, i, na[i], nb[i])
			}
		}
	}
}

func TestRoundTripPlain(t *testing.T) {
	b := graph.NewBuilder(graph.Directed, 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 0)
	g := b.Build()
	assertSameStructure(t, g, roundTrip(t, g))
}

func TestRoundTripWeightedUndirected(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 3)
	b.AddWeightedEdge(0, 1, 0.25)
	b.AddWeightedEdge(1, 2, 0.75)
	g := b.Build()
	back := roundTrip(t, g)
	assertSameStructure(t, g, back)
	if !back.HasWeights() {
		t.Fatal("weights lost")
	}
	if w := back.Weight(back.FindEdge(1, 0)); w != 0.25 {
		t.Errorf("weight = %g, want 0.25", w)
	}
}

func TestRoundTripProperties(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 2)
	b.AddEdgeFull(0, 1, 1, graph.Properties{"ts": graph.Int(99)})
	b.SetVertexProps(0, graph.Properties{
		"name":  graph.String("alice"),
		"age":   graph.Int(30),
		"score": graph.Float(2.5),
		"vip":   graph.Bool(true),
		"photo": graph.Blob(1234),
	})
	g := b.Build()
	back := roundTrip(t, g)
	p := back.VertexProps(0).Map()
	if p["name"].Str() != "alice" || p["age"].Int64() != 30 ||
		p["score"].Float64() != 2.5 || !p["vip"].IsTrue() || p["photo"].BlobSize() != 1234 {
		t.Errorf("vertex props lost: %v", p)
	}
	if back.VertexProps(1).Len() != 0 {
		t.Error("phantom props appeared")
	}
	e := back.FindEdge(0, 1)
	if ep := back.EdgeProps(e).Map(); ep["ts"] != graph.Int(99) {
		t.Errorf("edge props lost: %v", ep)
	}
	// Byte accounting must survive (the storage model depends on it).
	if back.VertexBytes(0) != g.VertexBytes(0) {
		t.Errorf("vertex bytes %d vs %d", back.VertexBytes(0), g.VertexBytes(0))
	}
}

func TestRoundTripPartition(t *testing.T) {
	b := graph.NewBuilder(graph.Directed, 4)
	b.SetPartition([]int32{0, 0, 1, 2})
	g := b.Build()
	back := roundTrip(t, g)
	if back.NumPartitions() != 3 || back.Partition(3) != 2 {
		t.Errorf("partition lost: %d/%d", back.NumPartitions(), back.Partition(3))
	}
}

func TestRoundTripGenerated(t *testing.T) {
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 500, NumEdges: 2000, Exponent: 2.2,
		Kind: graph.Undirected, Seed: 5, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, g)
	assertSameStructure(t, g, back)
	for v := 0; v < g.NumVertices(); v++ {
		if g.VertexBytes(graph.VertexID(v)) != back.VertexBytes(graph.VertexID(v)) {
			t.Fatalf("vertex %d bytes differ", v)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g, err := graphgen.Random(graphgen.RandomConfig{
		NumVertices: 100, NumEdges: 300, Kind: graph.Undirected, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.subtrav")
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStructure(t, g, back)
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := ReadFile("/nonexistent/path"); err == nil {
		t.Error("missing file accepted")
	}
}
