package graphio

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden v2 CSR fixture")

const goldenPath = "testdata/golden.csr2"

// goldenGraph is the handcrafted fixture pinned in testdata: small
// enough to eyeball in a hex dump, rich enough to exercise all twelve
// sections the writer emits.
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder(graph.Undirected, 8)
	b.AddEdgeFull(0, 1, 1.5, graph.Properties{"kind": graph.String("follows")})
	b.AddEdgeFull(1, 2, 2.5, graph.Properties{"kind": graph.String("follows"), "since": graph.Int(2019)})
	b.AddWeightedEdge(2, 3, 0.25)
	b.AddWeightedEdge(3, 0, 4)
	b.AddWeightedEdge(4, 5, 8)
	b.AddWeightedEdge(6, 6, 16) // self-loop; vertex 7 stays isolated
	b.SetVertexProps(0, graph.Properties{"name": graph.String("origin"), "avatar": graph.Blob(2048)})
	b.SetVertexProps(4, graph.Properties{"rank": graph.Float(0.75), "active": graph.Bool(true)})
	b.SetPartition([]int32{0, 0, 1, 1, 2, 2, 3, 3})
	return b.Build()
}

// TestCSRGoldenFile pins the exact v2 bytes of the golden fixture. Any
// change to the wire format — layout, ordering, interning, checksums —
// shows up here as a diff against the tracked file, forcing a
// conscious format-version decision rather than a silent break.
func TestCSRGoldenFile(t *testing.T) {
	g := goldenGraph()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder output (%d bytes) differs from the golden file (%d bytes); "+
			"if the format change is intentional, bump the version and run with -update",
			buf.Len(), len(want))
	}

	back, err := ReadCSR(want)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned decoded stats, independent of the equality helper.
	if back.Kind() != graph.Undirected || back.NumVertices() != 8 || back.NumEdges() != 6 {
		t.Fatalf("golden stats: kind=%v V=%d E=%d", back.Kind(), back.NumVertices(), back.NumEdges())
	}
	if !back.HasWeights() || back.NumPartitions() != 4 {
		t.Fatalf("golden stats: weighted=%v partitions=%d", back.HasWeights(), back.NumPartitions())
	}
	if got := back.Degree(6); got != 2 { // self-loop occupies both slots
		t.Fatalf("golden stats: degree(6)=%d", got)
	}
	if got := back.Degree(7); got != 0 {
		t.Fatalf("golden stats: degree(7)=%d", got)
	}
	assertGraphEqual(t, "golden", g, back)
}

// TestReadCSRAllocsPerRun is the zero-copy guard: decoding a large
// snapshot — bare, or with a property on every vertex and every edge —
// must cost a constant number of allocations (the graph header plus
// one per section view), not O(vertices). The gob path allocates per
// vertex and per edge; this is the measurable difference the v2 format
// exists for.
func TestReadCSRAllocsPerRun(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("copying decode on big-endian hosts allocates per column")
	}
	for _, meta := range []bool{false, true} {
		g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
			NumVertices: 8192, NumEdges: 32768, Exponent: 2.3, Kind: graph.Undirected, Seed: 7, VertexMeta: meta,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ReadCSR(data); err != nil {
				t.Fatal(err)
			}
		})
		// One Graph struct plus O(sections) scratch — nowhere near the
		// 8192 vertices or 32768 edges in the file.
		if allocs > 32 {
			t.Fatalf("meta=%v: ReadCSR allocated %.0f times for an 8192-vertex graph; the zero-copy contract is broken", meta, allocs)
		}
		t.Logf("meta=%v: %.0f allocations", meta, allocs)
	}
}
