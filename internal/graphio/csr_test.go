package graphio

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

	eb := graph.NewBuilder(graph.Directed, 4)
	eb.SetPartition([]int32{0, 0, 1, 2})
	out["partitioned-edgeless"] = eb.Build()

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
// targets, and logical-edge IDs and payloads.
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
			e := a.LogicalEdge(s)
			if eb := b.LogicalEdge(s); e != eb {
				t.Fatalf("%s: slot %d edge %d vs %d", label, s, e, eb)
			}
			if a.Weight(e) != b.Weight(e) {
				t.Fatalf("%s: slot %d weight %g vs %g", label, s, a.Weight(e), b.Weight(e))
			}
			if !propsEqual(a.EdgeProps(e), b.EdgeProps(e)) {
				t.Fatalf("%s: slot %d edge props %v vs %v", label, s, a.EdgeProps(e), b.EdgeProps(e))
			}
			if a.EdgeBytes(e) != b.EdgeBytes(e) {
				t.Fatalf("%s: slot %d edge bytes %d vs %d", label, s, a.EdgeBytes(e), b.EdgeBytes(e))
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

// TestCSRRoundTripDifferential is the heart of the test wall: on every
// fixture class, the decode of the graph's encoding is structurally
// equal to the graph, logical edge IDs included.
func TestCSRRoundTripDifferential(t *testing.T) {
	for name, g := range diffFixtures(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			back, err := ReadCSR(encodeCSR(t, g))
			if err != nil {
				t.Fatal(err)
			}
			assertGraphEqual(t, "decoded vs original", g, back)
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

// TestEncodeLEMatchesAlias pins the encoder that only big-endian hosts
// run: for every column of every fixture, encodeLE yields the bytes the
// little-endian writer aliases, and the copying decode reads them back.
func TestEncodeLEMatchesAlias(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasBytes is the section layout only on little-endian hosts")
	}
	for name, g := range diffFixtures(t) {
		d := g.CSRView()
		for col, err := range map[string]error{
			"offsets": sameEncoding(d.Offsets), "targets": sameEncoding(d.Targets),
			"edgeidx": sameEncoding(d.EdgeIdx), "weights": sameEncoding(d.Weights),
			"vbytes": sameEncoding(d.VBytes), "ebytes": sameEncoding(d.EBytes),
			"partition": sameEncoding(d.Partition), "keys": sameEncoding(d.Keys),
			"vpropidx": sameEncoding(d.VProps.Index), "vproprecs": sameEncoding(d.VProps.Recs),
			"epropidx": sameEncoding(d.EProps.Index), "eproprecs": sameEncoding(d.EProps.Recs),
		} {
			if err != nil {
				t.Errorf("%s: %s column: %v", name, col, err)
			}
		}
	}
}

// sameEncoding reports whether encodeLE(col) is col's memory image and
// decodes back to col.
func sameEncoding[T comparable](col []T) error {
	enc := encodeLE(col)
	if !bytes.Equal(enc, aliasBytes(col)) {
		return fmt.Errorf("encodeLE's %d bytes differ from the %d-byte memory image", len(enc), len(aliasBytes(col)))
	}
	if !slices.Equal(sliceOf[T](enc, true), col) {
		return fmt.Errorf("the copying decode of encodeLE's bytes differs from the column")
	}
	return nil
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

// TestCSRKeyTableAtLimit round-trips a graph with the most distinct
// property keys a 16-bit key id can name, so the largest id, 65535,
// survives the encoding in both decode modes.
func TestCSRKeyTableAtLimit(t *testing.T) {
	b := graph.NewBuilder(graph.Directed, 256)
	for v := 0; v < 256; v++ {
		p := graph.Properties{}
		for i := 0; i < graph.MaxPropKeys/256; i++ {
			p[fmt.Sprintf("k%03d-%03d", v, i)] = graph.Int(int64(v*1000 + i))
		}
		b.SetVertexProps(graph.VertexID(v), p)
	}
	g := b.Build()
	data := encodeCSR(t, g)
	for _, copyMode := range []bool{false, true} {
		back, err := decodeCSR(data, copyMode)
		if err != nil {
			t.Fatalf("copyMode=%v: %v", copyMode, err)
		}
		if got := len(back.CSRView().Keys); got != graph.MaxPropKeys {
			t.Fatalf("copyMode=%v: %d keys decoded, want %d", copyMode, got, graph.MaxPropKeys)
		}
		if v, ok := back.VertexProps(255).Get("k255-255"); !ok || v.Int64() != 255255 {
			t.Fatalf("copyMode=%v: the key with the largest id reads %v, %v", copyMode, v, ok)
		}
		assertGraphEqual(t, fmt.Sprintf("copyMode=%v", copyMode), g, back)
	}
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := diffFixtures(t)["powerlaw-undirected-props"]
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, "file round-trip", g, back)
}

func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	back, err := ReadCSR(encodeCSR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripPlain(t *testing.T) {
	b := graph.NewBuilder(graph.Directed, 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 0)
	g := b.Build()
	assertGraphEqual(t, "plain", g, roundTrip(t, g))
}

func TestRoundTripWeightedUndirected(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 3)
	b.AddWeightedEdge(0, 1, 0.25)
	b.AddWeightedEdge(1, 2, 0.75)
	g := b.Build()
	back := roundTrip(t, g)
	assertGraphEqual(t, "weighted undirected", g, back)
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
	if ep := back.EdgeProps(back.FindEdge(0, 1)).Map(); ep["ts"] != graph.Int(99) {
		t.Errorf("edge props lost: %v", ep)
	}
	// Byte accounting must survive (the storage model depends on it).
	if back.VertexBytes(0) != g.VertexBytes(0) {
		t.Errorf("vertex bytes %d vs %d", back.VertexBytes(0), g.VertexBytes(0))
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
	assertGraphEqual(t, "generated", g, roundTrip(t, g))
}

// TestFileRoundTrip goes through the file loaders rather than ReadCSR:
// WriteCSRFile, then both ReadGraphFile and OpenCSRFile.
func TestFileRoundTrip(t *testing.T) {
	g, err := graphgen.Random(graphgen.RandomConfig{
		NumVertices: 100, NumEdges: 300, Kind: graph.Undirected, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, "ReadGraphFile", g, back)
	m, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	assertGraphEqual(t, "OpenCSRFile", g, m.Graph)
}

func TestOpenCSRFileMmap(t *testing.T) {
	g := diffFixtures(t)["all-value-kinds"]
	path := filepath.Join(t.TempDir(), "g.csr")
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

// TestReadGraphFileRefusesNonSnapshot: both loaders refuse a file long
// enough to hold a header but not a snapshot by its magic.
func TestReadGraphFileRefusesNonSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	text := bytes.Repeat([]byte("not a graph, just some text. "), 4)
	if err := os.WriteFile(path, text, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGraphFile(path); !errors.Is(err, ErrCSRMagic) {
		t.Errorf("ReadGraphFile: err = %v, want ErrCSRMagic", err)
	}
	if m, err := OpenCSRFile(path); !errors.Is(err, ErrCSRMagic) {
		t.Errorf("OpenCSRFile: err = %v, want ErrCSRMagic", err)
		if m != nil {
			m.Close()
		}
	}
}

// TestReadErrors: input too short to hold a header is refused, and a
// missing file is reported as such by both loaders.
func TestReadErrors(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("garbage")} {
		if _, err := ReadCSR(data); err == nil {
			t.Errorf("ReadCSR(%q) accepted", data)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.csr")
	if _, err := ReadGraphFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadGraphFile(missing): err = %v, want fs.ErrNotExist", err)
	}
	if _, err := OpenCSRFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("OpenCSRFile(missing): err = %v, want fs.ErrNotExist", err)
	}
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
