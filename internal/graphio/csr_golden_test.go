package graphio

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden v3 CSR fixture")

// goldenPath is the golden fixture in this version's layout;
// testdata/golden.csr2 is the same graph as the last v2 build wrote it,
// kept as the refused-version case.
const goldenPath = "testdata/golden.csr3"

// goldenGraph is the handcrafted fixture pinned in testdata: small
// enough to eyeball in a hex dump, rich enough to exercise all
// thirteen sections the writer emits.
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

// TestCSRGoldenFile pins the exact v3 bytes of the golden fixture. Any
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

// midSizeSnapshotPartitions is how many contiguous vertex blocks
// midSizeSnapshot labels as partitions.
const midSizeSnapshotPartitions = 8

// midSizeSnapshot is a 32768-vertex power-law graph of average degree
// 16 carrying partition labels — and, with meta, a property set on
// every vertex and every edge — together with its v3 encoding.
func midSizeSnapshot(t *testing.T, meta bool) (*graph.Graph, []byte) {
	t.Helper()
	const n = 32768
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: n, NumEdges: n * 8, Exponent: 2.3, Kind: graph.Undirected, Seed: 0x6C0ADB19, VertexMeta: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v * midSizeSnapshotPartitions / n)
	}
	g = withPartition(g, labels)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

// withPartition rebuilds g — edges, weights and properties — with the
// given partition labels attached.
func withPartition(g *graph.Graph, labels []int32) *graph.Graph {
	b := graph.NewBuilder(g.Kind(), g.NumVertices())
	seen := make([]bool, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.EdgeSlots(graph.VertexID(v))
		for s := lo; s < hi; s++ {
			e := g.LogicalEdge(s)
			if seen[e] {
				continue
			}
			seen[e] = true
			w := float32(1)
			if g.HasWeights() {
				w = g.Weight(e)
			}
			b.AddEdgeFull(graph.VertexID(v), g.TargetAt(s), w, g.EdgeProps(e).Map())
		}
		if p := g.VertexProps(graph.VertexID(v)); p.Len() > 0 {
			b.SetVertexProps(graph.VertexID(v), p.Map())
		}
	}
	b.SetPartition(labels)
	return b.Build()
}

// TestReadCSRAllocsPerRun is the zero-copy guard: decoding a mid-size
// snapshot — bare, or with a property on every vertex and every edge —
// must cost a constant number of allocations (the graph header plus
// O(sections) scratch), not O(vertices).
func TestReadCSRAllocsPerRun(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("copying decode on big-endian hosts allocates per column")
	}
	const maxAllocs = 4
	for _, meta := range []bool{false, true} {
		_, data := midSizeSnapshot(t, meta)
		back, err := ReadCSR(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.NumPartitions(); got != midSizeSnapshotPartitions {
			t.Fatalf("meta=%v: decoded %d partitions, want %d", meta, got, midSizeSnapshotPartitions)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ReadCSR(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Fatalf("meta=%v: ReadCSR allocated %.0f times for a 32768-vertex graph, want at most %d; the zero-copy contract is broken", meta, allocs, maxAllocs)
		}
		t.Logf("meta=%v: %.0f allocations", meta, allocs)
	}
}

// TestReadCSRRetainedHeap: the decode aliases its columns into the
// snapshot buffer, so the graph it returns retains only its header —
// hundreds of bytes against the megabytes of the columns. The heap is
// measured across a forced GC with the graph still referenced. Not
// parallel: HeapAlloc is process-wide.
func TestReadCSRRetainedHeap(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("copying decode on big-endian hosts materializes the columns")
	}
	const maxRetained = 4 << 10
	_, data := midSizeSnapshot(t, false)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g, err := ReadCSR(data)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(g)
	got := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if got > maxRetained {
		t.Errorf("ReadCSR retains %d B of a %d-byte snapshot, want at most %d", got, len(data), maxRetained)
	}
	t.Logf("retained heap: %d B", got)
}
