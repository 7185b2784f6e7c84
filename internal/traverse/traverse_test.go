package traverse

import (
	"math"
	"testing"
	"testing/quick"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

// path builds an undirected path 0-1-2-...-n-1.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected, n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return b.Build()
}

func TestBFSDepthBound(t *testing.T) {
	g := pathGraph(10)
	for depth, want := range map[int]int{0: 1, 1: 2, 2: 3, 9: 10, 20: 10} {
		r, tr := BFS(g, Query{Op: OpBFS, Start: 0, Depth: depth})
		if r.Visited != want {
			t.Errorf("depth %d: visited %d, want %d", depth, r.Visited, want)
		}
		if len(tr.Touched) != want {
			t.Errorf("depth %d: touched %d, want %d", depth, len(tr.Touched), want)
		}
	}
}

func TestBFSVisitsNeighborhood(t *testing.T) {
	// Star: depth 1 from center visits everything; depth 1 from a
	// leaf visits leaf+center.
	b := graph.NewBuilder(graph.Undirected, 6)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	g := b.Build()
	if r, _ := BFS(g, Query{Op: OpBFS, Start: 0, Depth: 1}); r.Visited != 6 {
		t.Errorf("center depth1: %d, want 6", r.Visited)
	}
	if r, _ := BFS(g, Query{Op: OpBFS, Start: 3, Depth: 1}); r.Visited != 2 {
		t.Errorf("leaf depth1: %d, want 2", r.Visited)
	}
}

func TestBFSVertexPredicateBlocksExpansion(t *testing.T) {
	g := func() *graph.Graph {
		b := graph.NewBuilder(graph.Undirected, 3)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.SetVertexProps(1, graph.Properties{"blocked": graph.Bool(true)})
		return b.Build()
	}()
	pred := func(p graph.Props) bool {
		blocked, _ := p.Get("blocked")
		return !blocked.IsTrue()
	}
	r, tr := BFS(g, Query{Op: OpBFS, Start: 0, Depth: 5, VertexPred: pred})
	// Vertex 1 is touched (props loaded) but not expanded, so 2 is
	// never reached.
	if r.Visited != 1 {
		t.Errorf("visited %d, want 1 (only the start passes)", r.Visited)
	}
	touchedTwo := false
	for _, v := range tr.Touched {
		if v == 2 {
			touchedTwo = true
		}
	}
	if touchedTwo {
		t.Error("vertex 2 should be unreachable through a blocked vertex")
	}
}

func TestBFSEdgePredicate(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 3)
	b.AddEdgeFull(0, 1, 1, graph.Properties{"ok": graph.Bool(false)})
	b.AddEdgeFull(0, 2, 1, graph.Properties{"ok": graph.Bool(true)})
	g := b.Build()
	pred := func(p graph.Props) bool {
		ok, _ := p.Get("ok")
		return ok.IsTrue()
	}
	r, _ := BFS(g, Query{Op: OpBFS, Start: 0, Depth: 1, EdgePred: pred})
	if r.Visited != 2 {
		t.Errorf("visited %d, want 2 (start + vertex 2)", r.Visited)
	}
}

func TestBFSMaxVisits(t *testing.T) {
	g := pathGraph(100)
	r, _ := BFS(g, Query{Op: OpBFS, Start: 0, Depth: 99, MaxVisits: 5})
	if r.Visited != 5 {
		t.Errorf("visited %d, want capped 5", r.Visited)
	}
}

func TestBFSTraceAccounting(t *testing.T) {
	g := pathGraph(3)
	_, tr := BFS(g, Query{Op: OpBFS, Start: 0, Depth: 2})
	// Vertices 0,1,2 each expanded once → 3 record accesses. Vertex 0
	// scans 1 adjacency entry, vertex 1 scans 2, vertex 2 sits at the
	// depth bound and scans nothing → 3 scanned edges total.
	if len(tr.Accesses) != 3 {
		t.Fatalf("accesses = %d, want 3", len(tr.Accesses))
	}
	var scanned int32
	for _, a := range tr.Accesses {
		scanned += a.ScannedEdges
	}
	if scanned != 3 {
		t.Errorf("scanned edges = %d, want 3", scanned)
	}
	// Records carry adjacency bytes: every access is bigger than the
	// bare 64-byte vertex header.
	for i, a := range tr.Accesses {
		if a.Bytes <= 64 {
			t.Errorf("access %d bytes = %d, want > header (adjacency included)", i, a.Bytes)
		}
	}
	if tr.TotalBytes() <= 0 {
		t.Error("trace bytes should be positive")
	}
}

func TestSSSPOnPath(t *testing.T) {
	g := pathGraph(10)
	cases := []struct {
		target graph.VertexID
		bound  int
		found  bool
		length int
	}{
		{0, 4, true, 0},
		{1, 4, true, 1},
		{4, 4, true, 4},
		{5, 4, false, 0},
		{9, 9, true, 9},
		{9, 8, false, 0},
	}
	for _, c := range cases {
		r, _ := BoundedSSSP(g, Query{Op: OpSSSP, Start: 0, Target: c.target, Depth: c.bound})
		if r.Found != c.found {
			t.Errorf("target %d bound %d: found=%t, want %t", c.target, c.bound, r.Found, c.found)
			continue
		}
		if c.found && r.PathLen != c.length {
			t.Errorf("target %d bound %d: len=%d, want %d", c.target, c.bound, r.PathLen, c.length)
		}
	}
}

func TestSSSPFindsShortestNotJustAny(t *testing.T) {
	// Cycle 0-1-2-3-4-5-0: shortest 0→4 is 2 (via 5), not 4.
	b := graph.NewBuilder(graph.Undirected, 6)
	for i := 0; i < 6; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%6))
	}
	g := b.Build()
	r, _ := BoundedSSSP(g, Query{Op: OpSSSP, Start: 0, Target: 4, Depth: 6})
	if !r.Found || r.PathLen != 2 {
		t.Errorf("found=%t len=%d, want true/2", r.Found, r.PathLen)
	}
}

func TestSSSPAgainstReferenceBFS(t *testing.T) {
	g, err := graphgen.Random(graphgen.RandomConfig{NumVertices: 200, NumEdges: 600, Kind: graph.Undirected, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: full BFS distances from vertex 0.
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []graph.VertexID{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	const bound = 6
	for target := graph.VertexID(1); target < 60; target++ {
		r, _ := BoundedSSSP(g, Query{Op: OpSSSP, Start: 0, Target: target, Depth: bound})
		wantFound := dist[target] >= 0 && dist[target] <= bound
		if r.Found != wantFound {
			t.Errorf("target %d: found=%t, want %t (dist %d)", target, r.Found, wantFound, dist[target])
			continue
		}
		if wantFound && r.PathLen != dist[target] {
			t.Errorf("target %d: len=%d, want %d", target, r.PathLen, dist[target])
		}
	}
}

func TestCollabFilterKnown(t *testing.T) {
	// Products: A(0), B(1), C(2); customers: x(3), y(4), z(5).
	// x bought A,B; y bought A,B; z bought A,C.
	// Γ(A)={x,y,z}; Γ(B)={x,y}; s(A,B)=2/min(3,2)=1.0
	// Γ(C)={z}; s(A,C)=1/min(3,1)=1.0
	b := graph.NewBuilder(graph.Undirected, 6)
	b.AddEdge(3, 0)
	b.AddEdge(3, 1)
	b.AddEdge(4, 0)
	b.AddEdge(4, 1)
	b.AddEdge(5, 0)
	b.AddEdge(5, 2)
	g := b.Build()

	r, tr := CollabFilter(g, Query{Op: OpCollab, Start: 0, SimilarityThreshold: 0.9})
	if len(r.Recommendations) != 2 {
		t.Fatalf("recommendations = %v, want B and C", r.Recommendations)
	}
	for _, rec := range r.Recommendations {
		if rec.Similarity != 1.0 {
			t.Errorf("similarity(%d) = %g, want 1.0", rec.Product, rec.Similarity)
		}
	}
	// Threshold excludes partial overlap.
	r2, _ := CollabFilter(g, Query{Op: OpCollab, Start: 1, SimilarityThreshold: 0.99})
	// From B: buyers x,y; co-products: A with shared 2, min(2,3)=2 → 1.0.
	if len(r2.Recommendations) != 1 || r2.Recommendations[0].Product != 0 {
		t.Errorf("recs from B = %v, want [A]", r2.Recommendations)
	}
	if len(tr.Touched) == 0 || tr.Touched[0] != 0 {
		t.Error("trace should start at the query product")
	}
}

func TestCollabFilterIsolatedProduct(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 2)
	b.AddEdge(0, 1)
	g := b.Build()
	// Vertex with no buyers in a separate component.
	b2 := graph.NewBuilder(graph.Undirected, 1)
	iso := b2.Build()
	r, _ := CollabFilter(iso, Query{Op: OpCollab, Start: 0, SimilarityThreshold: 0.5})
	if len(r.Recommendations) != 0 || r.Visited != 1 {
		t.Errorf("isolated: %+v", r)
	}
	_ = g
}

func TestRWRDeterministicAndLocal(t *testing.T) {
	g := pathGraph(50)
	q := Query{Op: OpRWR, Start: 25, Steps: 500, RestartProb: 0.3, TopK: 5, Seed: 99}
	r1, _ := RandomWalk(g, q)
	r2, _ := RandomWalk(g, q)
	if len(r1.Ranking) != len(r2.Ranking) {
		t.Fatal("RWR nondeterministic length")
	}
	for i := range r1.Ranking {
		if r1.Ranking[i] != r2.Ranking[i] {
			t.Fatal("RWR nondeterministic ranking")
		}
	}
	if len(r1.Ranking) == 0 || len(r1.Ranking) > 5 {
		t.Fatalf("TopK violated: %d", len(r1.Ranking))
	}
	// Restarts keep the walk local: top hits are near the start.
	top := r1.Ranking[0].Vertex
	if top < 20 || top > 30 {
		t.Errorf("top RWR hit %d is far from start 25", top)
	}
}

func TestRWRFollowsWeights(t *testing.T) {
	// Start connected to two neighbors: weight 0.99 vs 0.01 — the
	// heavy neighbor must dominate visit counts.
	b := graph.NewBuilder(graph.Undirected, 3)
	b.AddWeightedEdge(0, 1, 0.99)
	b.AddWeightedEdge(0, 2, 0.01)
	g := b.Build()
	r, _ := RandomWalk(g, Query{Op: OpRWR, Start: 0, Steps: 2000, RestartProb: 0.5, Seed: 5})
	var s1, s2 float64
	for _, rk := range r.Ranking {
		switch rk.Vertex {
		case 1:
			s1 = rk.Score
		case 2:
			s2 = rk.Score
		}
	}
	if s1 <= 5*s2 {
		t.Errorf("heavy neighbor score %g should dwarf light neighbor %g", s1, s2)
	}
}

func TestRWRDeadEnd(t *testing.T) {
	// Isolated start: every step dead-ends and restarts; no crash.
	b := graph.NewBuilder(graph.Undirected, 1)
	g := b.Build()
	r, _ := RandomWalk(g, Query{Op: OpRWR, Start: 0, Steps: 100, RestartProb: 0.1, Seed: 1})
	if len(r.Ranking) != 0 {
		t.Errorf("ranking on isolated vertex = %v", r.Ranking)
	}
}

func TestExecuteDispatchAndValidation(t *testing.T) {
	g := pathGraph(5)
	if _, _, err := Execute(g, Query{Op: OpBFS, Start: 0, Depth: 2}); err != nil {
		t.Errorf("BFS: %v", err)
	}
	if _, _, err := Execute(g, Query{Op: OpSSSP, Start: 0, Target: 3, Depth: 4}); err != nil {
		t.Errorf("SSSP: %v", err)
	}
	if _, _, err := Execute(g, Query{Op: OpCollab, Start: 0, SimilarityThreshold: 0.5}); err != nil {
		t.Errorf("Collab: %v", err)
	}
	if _, _, err := Execute(g, Query{Op: OpRWR, Start: 0, Steps: 10, RestartProb: 0.2, Seed: 1}); err != nil {
		t.Errorf("RWR: %v", err)
	}

	bad := []Query{
		{Op: OpBFS, Start: -1, Depth: 1},
		{Op: OpBFS, Start: 99, Depth: 1},
		{Op: OpBFS, Start: 0, Depth: -1},
		{Op: OpSSSP, Start: 0, Target: 99, Depth: 2},
		{Op: OpSSSP, Start: 0, Target: 1, Depth: 0},
		{Op: OpCollab, Start: 0, SimilarityThreshold: 1.5},
		{Op: OpRWR, Start: 0, Steps: 0},
		{Op: OpRWR, Start: 0, Steps: 5, RestartProb: 1.0},
		{Op: Op(42), Start: 0},
	}
	for i, q := range bad {
		if _, _, err := Execute(g, q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpBFS: "bfs", OpSSSP: "sssp", OpCollab: "collab", OpRWR: "rwr"} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestSSSPMaxVisitsCapsWork(t *testing.T) {
	// A hub graph: start and target connected through a huge hub.
	b := graph.NewBuilder(graph.Undirected, 1002)
	for i := 2; i < 1002; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	b.AddEdge(0, 1)
	g := b.Build()

	// Uncapped: finds 0-1 directly but labels the whole hub fan.
	full, _ := BoundedSSSP(g, Query{Op: OpSSSP, Start: 0, Target: 1, Depth: 2})
	if !full.Found || full.PathLen != 1 {
		t.Fatalf("uncapped: %+v", full)
	}
	// Capped: visits bounded; may or may not find, but must not
	// explode.
	capped, tr := BoundedSSSP(g, Query{Op: OpSSSP, Start: 0, Target: 1, Depth: 2, MaxVisits: 50})
	if capped.Visited > 55 {
		t.Errorf("capped search visited %d, want <= ~50", capped.Visited)
	}
	if len(tr.Touched) > 55 {
		t.Errorf("capped trace touched %d", len(tr.Touched))
	}
}

func TestSSSPCapStillFindsEasyPaths(t *testing.T) {
	g := pathGraph(20)
	r, _ := BoundedSSSP(g, Query{Op: OpSSSP, Start: 0, Target: 3, Depth: 4, MaxVisits: 100})
	if !r.Found || r.PathLen != 3 {
		t.Errorf("capped easy path: %+v", r)
	}
}

// Property: BFS visited count is monotone in depth and MaxVisits caps
// are respected exactly.
func TestBFSMonotoneQuick(t *testing.T) {
	g, err := graphgen.Random(graphgen.RandomConfig{NumVertices: 300, NumEdges: 900, Kind: graph.Undirected, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(startRaw uint16, depthRaw, capRaw uint8) bool {
		start := graph.VertexID(int(startRaw) % 300)
		depth := int(depthRaw) % 5
		cap := int(capRaw)%60 + 1
		shallow, _ := BFS(g, Query{Op: OpBFS, Start: start, Depth: depth})
		deep, _ := BFS(g, Query{Op: OpBFS, Start: start, Depth: depth + 1})
		if deep.Visited < shallow.Visited {
			return false
		}
		capped, _ := BFS(g, Query{Op: OpBFS, Start: start, Depth: depth, MaxVisits: cap})
		return capped.Visited <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the trace's Touched list is exactly the set of distinct
// accessed vertices, in first-access order.
func TestTraceTouchedConsistencyQuick(t *testing.T) {
	g, err := graphgen.Random(graphgen.RandomConfig{NumVertices: 200, NumEdges: 700, Kind: graph.Undirected, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(startRaw uint16, opRaw uint8) bool {
		start := graph.VertexID(int(startRaw) % 200)
		var q Query
		switch opRaw % 3 {
		case 0:
			q = Query{Op: OpBFS, Start: start, Depth: 2, MaxVisits: 50}
		case 1:
			q = Query{Op: OpSSSP, Start: start, Target: graph.VertexID((int(startRaw) * 3) % 200), Depth: 4}
		default:
			q = Query{Op: OpRWR, Start: start, Steps: 100, RestartProb: 0.3, Seed: uint64(startRaw)}
		}
		_, tr, err := Execute(g, q)
		if err != nil {
			return false
		}
		seen := map[graph.VertexID]bool{}
		var order []graph.VertexID
		for _, a := range tr.Accesses {
			if !seen[a.Vertex] {
				seen[a.Vertex] = true
				order = append(order, a.Vertex)
			}
		}
		if len(order) != len(tr.Touched) {
			return false
		}
		for i := range order {
			if order[i] != tr.Touched[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestChargeScanSaturates is the regression guard for the int32
// overflow class the batch engine exposed: MaxBatch queries' scans of
// one synthetic max-degree record aggregate into a single shared
// access, so the add must saturate instead of wrapping negative.
func TestChargeScanSaturates(t *testing.T) {
	tr := &Trace{Accesses: []Access{{Vertex: 0, Bytes: 64}}}
	tr.chargeScan(0, math.MaxInt32-10)
	tr.chargeScan(0, math.MaxInt32-10) // would wrap far negative un-saturated
	if got := tr.Accesses[0].ScannedEdges; got != math.MaxInt32 {
		t.Errorf("ScannedEdges = %d after overflow-sized charges, want saturation at %d",
			got, int32(math.MaxInt32))
	}
	tr.chargeScan(0, 1)
	if got := tr.Accesses[0].ScannedEdges; got != math.MaxInt32 {
		t.Errorf("ScannedEdges = %d after post-saturation charge, want %d stays pinned",
			got, int32(math.MaxInt32))
	}
}
