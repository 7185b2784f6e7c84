package graphio

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

// diffFixtures enumerates the differential-test graph classes: every
// topology the generators produce (random, power-law, bipartite) plus
// handcrafted edge cases, in weighted and unweighted, propertied and
// bare, partitioned and unpartitioned combinations.
func diffFixtures(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)

	rnd, err := graphgen.Random(graphgen.RandomConfig{
		NumVertices: 300, NumEdges: 900, Kind: graph.Directed, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["random-directed"] = rnd

	rndMeta, err := graphgen.Random(graphgen.RandomConfig{
		NumVertices: 200, NumEdges: 600, Kind: graph.Undirected, Seed: 12, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["random-undirected-props"] = rndMeta

	pl, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 400, NumEdges: 1600, Exponent: 2.3, Kind: graph.Undirected, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["powerlaw-undirected"] = pl

	plMeta, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 250, NumEdges: 1000, Exponent: 2.3, Kind: graph.Undirected, Seed: 14, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["powerlaw-undirected-props"] = plMeta

	// Power-law with partition labels attached.
	partLabels := make([]int32, pl.NumVertices())
	for v := range partLabels {
		partLabels[v] = int32(v % 4)
	}
	out["powerlaw-partitioned"] = withPartition(pl, partLabels)

	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers: 120, NumProducts: 80, PurchasesPerCustomerMean: 6,
		PopularityExponent: 2.4, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["bipartite-purchases"] = bip.Graph

	wb := graph.NewBuilder(graph.Directed, 5)
	wb.AddWeightedEdge(0, 1, 0.25)
	wb.AddWeightedEdge(1, 2, -3.5)
	wb.AddWeightedEdge(2, 2, 7) // self-loop
	wb.AddWeightedEdge(0, 1, 2) // parallel edge
	out["weighted-directed-multi"] = wb.Build()

	ab := graph.NewBuilder(graph.Undirected, 4)
	ab.AddEdgeFull(0, 1, 0.5, allKindsEdge0)
	ab.AddWeightedEdge(1, 2, 1.5)
	for v, p := range allKindsVertices {
		ab.SetVertexProps(v, p)
	}
	ab.SetPartition([]int32{0, 1, 0, 1})
	out["all-value-kinds"] = ab.Build()

	out["empty"] = graph.NewBuilder(graph.Directed, 0).Build()

	ib := graph.NewBuilder(graph.Undirected, 7)
	ib.SetVertexProps(2, graph.Properties{"lonely": graph.Bool(true)})
	out["isolated-vertices"] = ib.Build()

	return out
}

// The all-value-kinds fixture's input maps, kept so a test can hold the
// loaded views against what the builder was given.
var (
	allKindsEdge0 = graph.Properties{
		"s": graph.String("edge-string"), "i": graph.Int(-9), "f": graph.Float(3.25),
		"b": graph.Bool(false), "z": graph.Blob(4096),
	}
	allKindsVertices = map[graph.VertexID]graph.Properties{
		0: {"name": graph.String("alice"), "": graph.String(""), "vip": graph.Bool(true)},
		3: {"photo": graph.Blob(123456)},
	}
)

// sameValue is Value.Equal, except that a NaN (which a fuzzed file may
// carry) equals the NaN with the same bits.
func sameValue(a, b graph.Value) bool {
	return a.Equal(b) || a.Kind() == graph.KindFloat && b.Kind() == graph.KindFloat &&
		math.Float64bits(a.Float64()) == math.Float64bits(b.Float64())
}

// propsEqual compares two views through everything a view offers:
// length, size, ordered iteration and lookup by name.
func propsEqual(a, b graph.Props) bool {
	if a.Len() != b.Len() || a.SerializedBytes() != b.SerializedBytes() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ka, va := a.At(i)
		kb, vb := b.At(i)
		if ka != kb || !sameValue(va, vb) {
			return false
		}
		if got, ok := b.Get(ka); !ok || !sameValue(got, va) {
			return false
		}
	}
	return true
}

// assertGraphEqual is the full structural-equality oracle: kind,
// counts, per-vertex adjacency/slots/bytes/partition/props, per-slot
// targets, and logical-edge payloads. Logical edge IDs are compared up
// to bijection because the v1 gob codec renumbers edges into
// first-slot-encounter order while v2 preserves them exactly.
func assertGraphEqual(t *testing.T, label string, a, b *graph.Graph) {
	t.Helper()
	if a.Kind() != b.Kind() || a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: shape %v/%d/%d vs %v/%d/%d", label,
			a.Kind(), a.NumVertices(), a.NumEdges(), b.Kind(), b.NumVertices(), b.NumEdges())
	}
	if a.NumPartitions() != b.NumPartitions() {
		t.Fatalf("%s: partitions %d vs %d", label, a.NumPartitions(), b.NumPartitions())
	}
	if a.HasWeights() != b.HasWeights() {
		t.Fatalf("%s: weighted %v vs %v", label, a.HasWeights(), b.HasWeights())
	}
	a2b := make(map[graph.EdgeID]graph.EdgeID)
	b2a := make(map[graph.EdgeID]graph.EdgeID)
	for v := 0; v < a.NumVertices(); v++ {
		id := graph.VertexID(v)
		if a.Degree(id) != b.Degree(id) {
			t.Fatalf("%s: vertex %d degree %d vs %d", label, v, a.Degree(id), b.Degree(id))
		}
		alo, ahi := a.EdgeSlots(id)
		blo, bhi := b.EdgeSlots(id)
		if alo != blo || ahi != bhi {
			t.Fatalf("%s: vertex %d slots [%d,%d) vs [%d,%d)", label, v, alo, ahi, blo, bhi)
		}
		na, nb := a.Neighbors(id), b.Neighbors(id)
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("%s: vertex %d neighbor %d: %d vs %d", label, v, i, na[i], nb[i])
			}
		}
		for s := alo; s < ahi; s++ {
			ea, eb := a.LogicalEdge(s), b.LogicalEdge(s)
			if prev, ok := a2b[ea]; ok && prev != eb {
				t.Fatalf("%s: slot %d maps edge %d to both %d and %d", label, s, ea, prev, eb)
			}
			if prev, ok := b2a[eb]; ok && prev != ea {
				t.Fatalf("%s: slot %d maps edge %d back to both %d and %d", label, s, eb, prev, ea)
			}
			a2b[ea], b2a[eb] = eb, ea
			if a.Weight(ea) != b.Weight(eb) {
				t.Fatalf("%s: slot %d weight %g vs %g", label, s, a.Weight(ea), b.Weight(eb))
			}
			if !propsEqual(a.EdgeProps(ea), b.EdgeProps(eb)) {
				t.Fatalf("%s: slot %d edge props %v vs %v", label, s, a.EdgeProps(ea), b.EdgeProps(eb))
			}
			if a.EdgeBytes(ea) != b.EdgeBytes(eb) {
				t.Fatalf("%s: slot %d edge bytes %d vs %d", label, s, a.EdgeBytes(ea), b.EdgeBytes(eb))
			}
		}
		if !propsEqual(a.VertexProps(id), b.VertexProps(id)) {
			t.Fatalf("%s: vertex %d props %v vs %v", label, v, a.VertexProps(id), b.VertexProps(id))
		}
		if a.VertexBytes(id) != b.VertexBytes(id) {
			t.Fatalf("%s: vertex %d bytes %d vs %d", label, v, a.VertexBytes(id), b.VertexBytes(id))
		}
		if a.Partition(id) != b.Partition(id) {
			t.Fatalf("%s: vertex %d partition %d vs %d", label, v, a.Partition(id), b.Partition(id))
		}
	}
}

func encodeCSR(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCSRGobDifferential is the heart of the test wall: on every
// fixture class, the v1 gob decode and the v2 flat-CSR decode of the
// same graph must be structurally equal — and both equal to the
// original.
func TestCSRGobDifferential(t *testing.T) {
	for name, g := range diffFixtures(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var gobBuf bytes.Buffer
			if err := Write(&gobBuf, g); err != nil {
				t.Fatal(err)
			}
			v1, err := Read(&gobBuf)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := ReadCSR(encodeCSR(t, g))
			if err != nil {
				t.Fatal(err)
			}
			assertGraphEqual(t, "v2 vs original", g, v2)
			assertGraphEqual(t, "v1 vs original", g, v1)
			assertGraphEqual(t, "v1 vs v2", v1, v2)
		})
	}
}

// TestCSRDeterministicEncode pins the writer's determinism: encoding
// the same graph twice, and re-encoding a decoded graph (either decode
// mode), are all byte-identical. Tracked dataset files therefore diff
// cleanly.
func TestCSRDeterministicEncode(t *testing.T) {
	for name, g := range diffFixtures(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := encodeCSR(t, g)
			second := encodeCSR(t, g)
			if !bytes.Equal(first, second) {
				t.Fatal("two encodes of the same graph differ")
			}
			for _, copyMode := range []bool{false, true} {
				back, err := decodeCSR(first, copyMode)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, encodeCSR(t, back)) {
					t.Fatalf("copyMode=%v: re-encode of the decoded graph differs from the original bytes", copyMode)
				}
			}
		})
	}
}

// TestCSRCopyModeDifferential drives the copying decode fallback (big-
// endian or misaligned hosts) against the zero-copy alias path.
func TestCSRCopyModeDifferential(t *testing.T) {
	for name, g := range diffFixtures(t) {
		data := encodeCSR(t, g)
		aliased, err := decodeCSR(data, false)
		if err != nil {
			t.Fatalf("%s: alias decode: %v", name, err)
		}
		copied, err := decodeCSR(data, true)
		if err != nil {
			t.Fatalf("%s: copy decode: %v", name, err)
		}
		assertGraphEqual(t, name+": alias vs copy", aliased, copied)
	}
}

// TestCSRMisalignedBuffer proves ReadCSR survives a buffer whose base
// is not 8-aligned by falling back to the copying decode.
func TestCSRMisalignedBuffer(t *testing.T) {
	g := diffFixtures(t)["all-value-kinds"]
	data := encodeCSR(t, g)
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	back, err := ReadCSR(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, "misaligned", g, back)
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := diffFixtures(t)["powerlaw-undirected-props"]
	path := filepath.Join(t.TempDir(), "g.csr2")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, "file round-trip", g, back)
}

func TestOpenCSRFileMmap(t *testing.T) {
	g := diffFixtures(t)["all-value-kinds"]
	path := filepath.Join(t.TempDir(), "g.csr2")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, "mmap", g, m.Graph)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestReadGraphFileAutoDetect loads the same graph from a v1 gob file
// and a v2 CSR file through the sniffing entry point.
func TestReadGraphFileAutoDetect(t *testing.T) {
	g := diffFixtures(t)["random-undirected-props"]
	dir := t.TempDir()
	gobPath := filepath.Join(dir, "g.gob")
	csrPath := filepath.Join(dir, "g.csr2")
	if err := WriteFile(gobPath, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSRFile(csrPath, g); err != nil {
		t.Fatal(err)
	}
	fromGob, err := ReadGraphFile(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	fromCSR, err := ReadGraphFile(csrPath)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, "auto-detect gob vs csr", fromGob, fromCSR)

	gobBytes, csrBytes := encodeGob(t, g), encodeCSR(t, g)
	if SniffFormat(gobBytes) != FormatGob || SniffFormat(csrBytes) != FormatCSR {
		t.Fatalf("sniff: gob=%v csr=%v", SniffFormat(gobBytes), SniffFormat(csrBytes))
	}
}

func encodeGob(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCSRViewsMatchBuilderInput closes the loop assertGraphEqual leaves
// open (it compares view with view): in both decode modes, the views of
// a loaded graph convert to exactly the maps the builder was given.
func TestCSRViewsMatchBuilderInput(t *testing.T) {
	data := encodeCSR(t, diffFixtures(t)["all-value-kinds"])
	for _, copyMode := range []bool{false, true} {
		g, err := decodeCSR(data, copyMode)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := graph.VertexID(v)
			if got, want := g.VertexProps(id).Map(), allKindsVertices[id]; !reflect.DeepEqual(got, want) {
				t.Errorf("copyMode=%v: vertex %d props %v, want %v", copyMode, v, got, want)
			}
		}
		if got := g.EdgeProps(g.FindEdge(1, 0)).Map(); !reflect.DeepEqual(got, allKindsEdge0) {
			t.Errorf("copyMode=%v: edge 0-1 props %v, want %v", copyMode, got, allKindsEdge0)
		}
		if got := g.EdgeProps(g.FindEdge(1, 2)).Map(); got != nil {
			t.Errorf("copyMode=%v: edge 1-2 props %v, want none", copyMode, got)
		}
	}
}

func TestWriteCSRNilGraph(t *testing.T) {
	if err := WriteCSR(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}
