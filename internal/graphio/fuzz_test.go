package graphio

import (
	"bytes"
	"testing"

	"subtrav/internal/graph"
)

// FuzzRead asserts the graph decoder never panics on arbitrary bytes —
// corrupt files must surface as errors.
func FuzzRead(f *testing.F) {
	// Seed with a valid encoding plus mutations.
	b := graph.NewBuilder(graph.Undirected, 4)
	b.AddWeightedEdge(0, 1, 0.5)
	b.AddEdge(2, 3)
	b.SetVertexProps(0, graph.Properties{"k": graph.Int(7)})
	var buf bytes.Buffer
	if err := Write(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	if len(valid) > 10 {
		truncated := valid[:len(valid)/2]
		f.Add(truncated)
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded graphs must be internally consistent enough to scan.
		for v := 0; v < g.NumVertices(); v++ {
			_ = g.Neighbors(graph.VertexID(v))
			_ = g.VertexBytes(graph.VertexID(v))
		}
	})
}

// FuzzReadCSR asserts the v2 flat-CSR decoder never panics and never
// over-allocates on arbitrary bytes: hostile headers must surface as
// errors before any count-proportional allocation. When a decode
// succeeds, the graph must be scannable — every property of every
// entity looked up, iterated and sized through its view — the copying
// decode path must agree, and the re-encode must round-trip.
func FuzzReadCSR(f *testing.F) {
	// Seed with a valid file exercising all sections, truncations at
	// every section boundary, and per-section checksum flips.
	b := graph.NewBuilder(graph.Undirected, 5)
	b.AddEdgeFull(0, 1, 0.5, graph.Properties{"k": graph.String("v")})
	b.AddWeightedEdge(1, 2, 2)
	b.AddEdge(3, 4)
	b.SetVertexProps(0, graph.Properties{"n": graph.Int(7), "b": graph.Blob(64)})
	b.SetPartition([]int32{0, 0, 1, 1, 1})
	var buf bytes.Buffer
	if err := WriteCSR(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add([]byte{})
	f.Add([]byte(csrMagic))
	f.Add([]byte("garbage that is long enough to not be a header"))
	// The second file is an older build's, so the fuzzer still reaches
	// the reserved-section path.
	for _, file := range [][]byte{valid, readInEdgeFixture(f)} {
		f.Add(file)
		nSec := int(le.Uint32(file[44:]))
		for i := 0; i < nSec; i++ {
			e := file[csrHeaderSize+i*csrEntrySize:]
			off := le.Uint64(e[8:])
			f.Add(file[:off]) // truncate at the section boundary
			flipped := append([]byte(nil), file...)
			flipped[off] ^= 0xff // flip the section checksum's coverage
			f.Add(flipped)
		}
	}
	hostile := append([]byte(nil), valid...)
	le.PutUint64(hostile[16:], 1<<31) // vertex count far beyond the file
	f.Add(hostile)

	// walk reads p every way a view can be read; the copying decode's
	// view of the same entity must agree.
	walk := func(t *testing.T, p, copied graph.Props) {
		if !propsEqual(p, copied) {
			t.Fatalf("alias and copy decode disagree: %v vs %v", p, copied)
		}
		for i := 0; i < p.Len(); i++ {
			k, v := p.At(i)
			if got, ok := p.Get(k); !ok || !sameValue(got, v) {
				t.Fatalf("Get(%q) = %v, %v; At(%d) says %v", k, got, ok, i, v)
			}
		}
		if n := p.SerializedBytes(); n < 0 || n > 1<<30 {
			t.Fatalf("SerializedBytes = %d", n)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadCSR(data)
		if err != nil {
			return
		}
		copied, err := decodeCSR(data, true)
		if err != nil {
			t.Fatalf("alias decode succeeded but copy decode failed: %v", err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := graph.VertexID(v)
			_ = g.Neighbors(id)
			_ = g.VertexBytes(id)
			walk(t, g.VertexProps(id), copied.VertexProps(id))
			_ = g.Partition(id)
			lo, hi := g.EdgeSlots(id)
			for s := lo; s < hi; s++ {
				e := g.LogicalEdge(s)
				_ = g.Weight(e)
				walk(t, g.EdgeProps(e), copied.EdgeProps(e))
				_ = g.EdgeBytes(e)
			}
		}
		var out bytes.Buffer
		if err := WriteCSR(&out, g); err != nil {
			t.Fatalf("re-encode of a decoded graph failed: %v", err)
		}
		if _, err := ReadCSR(out.Bytes()); err != nil {
			t.Fatalf("re-decode of a re-encoded graph failed: %v", err)
		}
	})
}
