package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T, kind Kind) *Graph {
	t.Helper()
	b := NewBuilder(kind, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

func TestDirectedTriangle(t *testing.T) {
	g := buildTriangle(t, Directed)
	if got := g.NumVertices(); got != 3 {
		t.Fatalf("NumVertices = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	for v := VertexID(0); v < 3; v++ {
		if d := g.Degree(v); d != 1 {
			t.Errorf("Degree(%d) = %d, want 1", v, d)
		}
	}
	if ns := g.Neighbors(0); len(ns) != 1 || ns[0] != 1 {
		t.Errorf("Neighbors(0) = %v, want [1]", ns)
	}
}

func TestUndirectedTriangle(t *testing.T) {
	g := buildTriangle(t, Undirected)
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3 (logical)", got)
	}
	for v := VertexID(0); v < 3; v++ {
		if d := g.Degree(v); d != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, d)
		}
	}
	// Both directions of one undirected edge share the logical index.
	e01 := g.FindEdge(0, 1)
	e10 := g.FindEdge(1, 0)
	if e01 == NoEdge || e01 != e10 {
		t.Errorf("FindEdge(0,1)=%d FindEdge(1,0)=%d, want equal logical edges", e01, e10)
	}
}

func TestFindEdgeAbsent(t *testing.T) {
	g := buildTriangle(t, Directed)
	if e := g.FindEdge(1, 0); e != NoEdge {
		t.Errorf("FindEdge(1,0) = %d, want NoEdge in directed triangle", e)
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(Directed, 5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	ns := g.Neighbors(0)
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
		t.Errorf("Neighbors(0) = %v, want sorted", ns)
	}
}

func TestWeightsSharedAcrossDirections(t *testing.T) {
	b := NewBuilder(Undirected, 2)
	b.AddWeightedEdge(0, 1, 0.75)
	g := b.Build()
	if !g.HasWeights() {
		t.Fatal("HasWeights() = false, want true")
	}
	if w := g.Weight(g.FindEdge(0, 1)); w != 0.75 {
		t.Errorf("Weight(0-1) = %g, want 0.75", w)
	}
	if w := g.Weight(g.FindEdge(1, 0)); w != 0.75 {
		t.Errorf("Weight(1-0) = %g, want 0.75", w)
	}
}

func TestUnweightedDefaultsToOne(t *testing.T) {
	g := buildTriangle(t, Directed)
	if g.HasWeights() {
		t.Fatal("HasWeights() = true on unweighted graph")
	}
	if w := g.Weight(0); w != 1 {
		t.Errorf("Weight = %g, want 1", w)
	}
}

func TestVertexProperties(t *testing.T) {
	b := NewBuilder(Directed, 2)
	b.AddEdge(0, 1)
	b.SetVertexProps(0, Properties{"name": String("alice"), "age": Int(30)})
	g := b.Build()
	p := g.VertexProps(0)
	if name, _ := p.Get("name"); p.Len() != 2 || name != String("alice") {
		t.Errorf("VertexProps(0) = %v", p)
	}
	if age, ok := p.Get("age"); !ok || age != Int(30) {
		t.Errorf("VertexProps(0) = %v", p)
	}
	if p := g.VertexProps(1); p.Len() != 0 || p.Map() != nil {
		t.Errorf("VertexProps(1) = %v, want empty", p)
	}
	// Payload accounting: vertex with props must be strictly larger
	// than the base record, propless vertex exactly base.
	if g.VertexBytes(0) <= g.VertexBytes(1) {
		t.Errorf("VertexBytes(0)=%d should exceed VertexBytes(1)=%d", g.VertexBytes(0), g.VertexBytes(1))
	}
	if g.VertexBytes(1) != vertexBaseBytes {
		t.Errorf("VertexBytes(1) = %d, want %d", g.VertexBytes(1), vertexBaseBytes)
	}
}

func TestEdgeProperties(t *testing.T) {
	b := NewBuilder(Undirected, 2)
	b.AddEdgeFull(0, 1, 1, Properties{"ts": Int(12345)})
	g := b.Build()
	e := g.FindEdge(1, 0)
	if ts, ok := g.EdgeProps(e).Get("ts"); !ok || ts != Int(12345) {
		t.Errorf("EdgeProps = %v", g.EdgeProps(e))
	}
	if g.EdgeBytes(e) <= edgeBaseBytes {
		t.Errorf("EdgeBytes = %d, want > %d", g.EdgeBytes(e), edgeBaseBytes)
	}
}

func TestBlobPayloadDominatesSize(t *testing.T) {
	b := NewBuilder(Directed, 1)
	b.SetVertexProps(0, Properties{"photo": Blob(500_000)})
	g := b.Build()
	if got := g.VertexBytes(0); got < 500_000 {
		t.Errorf("VertexBytes = %d, want >= 500000", got)
	}
}

// TestHugeBlobClampsEdgeBytes: an edge payload beyond int32 is priced
// at the same 1 GiB cap as a vertex record, never negative — the cache
// budgets by these sizes.
func TestHugeBlobClampsEdgeBytes(t *testing.T) {
	b := NewBuilder(Directed, 2)
	b.AddEdgeFull(0, 1, 1, Properties{"video": Blob(math.MaxInt32)})
	g := b.Build()
	if got := g.EdgeBytes(0); got != 1<<30 {
		t.Errorf("EdgeBytes = %d, want %d", got, 1<<30)
	}
	if got := g.VertexBytes(0); got != 1<<30 {
		t.Errorf("VertexBytes = %d, want %d", got, 1<<30)
	}
}

func TestPartition(t *testing.T) {
	b := NewBuilder(Directed, 4)
	b.SetPartition([]int32{0, 1, 1, 2})
	g := b.Build()
	if g.NumPartitions() != 3 {
		t.Errorf("NumPartitions = %d, want 3", g.NumPartitions())
	}
	if g.Partition(2) != 1 {
		t.Errorf("Partition(2) = %d, want 1", g.Partition(2))
	}
}

func TestUnpartitionedDefaults(t *testing.T) {
	g := buildTriangle(t, Directed)
	if g.NumPartitions() != 0 || g.Partition(0) != -1 {
		t.Errorf("unpartitioned graph: NumPartitions=%d Partition(0)=%d", g.NumPartitions(), g.Partition(0))
	}
}

func TestBuilderPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("negative n", func() { NewBuilder(Directed, -1) })
	assertPanics("vertex out of range", func() {
		b := NewBuilder(Directed, 2)
		b.AddEdge(0, 2)
	})
	assertPanics("partition length", func() {
		b := NewBuilder(Directed, 2)
		b.SetPartition([]int32{0})
	})
	assertPanics("double build", func() {
		b := NewBuilder(Directed, 1)
		b.Build()
		b.Build()
	})
	assertPanics("add after build", func() {
		b := NewBuilder(Directed, 2)
		b.Build()
		b.AddEdge(0, 1)
	})
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(Directed, 0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	st := ComputeStats(g)
	if st.MinDegree != 0 || st.MaxDegree != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestStatsRegularRing(t *testing.T) {
	const n = 100
	b := NewBuilder(Undirected, n)
	for v := 0; v < n; v++ {
		b.AddEdge(VertexID(v), VertexID((v+1)%n))
	}
	g := b.Build()
	st := ComputeStats(g)
	if st.MinDegree != 2 || st.MaxDegree != 2 {
		t.Errorf("ring degrees: min=%d max=%d, want 2/2", st.MinDegree, st.MaxDegree)
	}
	if st.DegreeVariance != 0 {
		t.Errorf("ring degree variance = %g, want 0", st.DegreeVariance)
	}
	if st.Gini > 1e-9 {
		t.Errorf("ring gini = %g, want ~0", st.Gini)
	}
}

func TestStatsStar(t *testing.T) {
	const n = 101
	b := NewBuilder(Undirected, n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, VertexID(v))
	}
	g := b.Build()
	st := ComputeStats(g)
	if st.MaxDegree != n-1 {
		t.Errorf("star hub degree = %d, want %d", st.MaxDegree, n-1)
	}
	if st.Gini < 0.4 {
		t.Errorf("star gini = %g, want noticeably skewed (>= 0.4)", st.Gini)
	}
}

// Property: for any random directed edge multiset, the CSR must
// preserve exactly the edges that were inserted (as a multiset).
func TestCSRPreservesEdgesQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%50 + 1
		m := int(mRaw) % 500
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(Directed, n)
		type pair struct{ s, d VertexID }
		want := map[pair]int{}
		for i := 0; i < m; i++ {
			s := VertexID(rng.Intn(n))
			d := VertexID(rng.Intn(n))
			b.AddEdge(s, d)
			want[pair{s, d}]++
		}
		g := b.Build()
		got := map[pair]int{}
		total := 0
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(VertexID(v)) {
				got[pair{VertexID(v), u}]++
				total++
			}
		}
		if total != m {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: undirected graphs are symmetric — u in N(v) iff v in N(u),
// and the degree sum equals twice the logical edge count.
func TestUndirectedSymmetryQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%40 + 2
		m := int(mRaw) % 300
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(Undirected, n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(VertexID(v))
			for _, u := range g.Neighbors(VertexID(v)) {
				if g.FindEdge(u, VertexID(v)) == NoEdge {
					return false
				}
			}
		}
		return degSum == 2*m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGiniBounds(t *testing.T) {
	f := func(xsRaw []uint8) bool {
		xs := make([]int, len(xsRaw))
		for i, x := range xsRaw {
			xs[i] = int(x)
		}
		g := giniOfInts(xs)
		return g >= -1e-12 && g <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
