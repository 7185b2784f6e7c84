package traverse

import (
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/predicate"
)

// Allocation-regression guards: a warmed Workspace must run each
// kernel with (near) zero heap allocations. The budgets below are
// deliberate constants, not measurements — raising one is an API
// decision, not a flaky-test fix:
//
//   - maxAllocsBFS/SSSP/Collab = 0: every structure these kernels
//     touch (dense scratch, ring, frontiers, side lists, trace,
//     result scratch) is reused; nothing may escape per query.
//   - maxAllocsRWR = 0: the RNG is a stack value (xrand.Reseed), the
//     ranking is built in the pooled buffer.
//   - maxAllocsBatch = 0: a warmed Batch reuses its slots, per-slot
//     dense maps, traces and result buffers the same way.
//
// Budgets ≤ 3 are required by the PR acceptance criteria; we hold the
// kernels to the stricter zero.
//
// These tests must NOT run in parallel: testing.AllocsPerRun counts
// process-wide mallocs, so a concurrent test's allocations would leak
// into the measurement.
const (
	maxAllocsBFS    = 0
	maxAllocsSSSP   = 0
	maxAllocsCollab = 0
	maxAllocsRWR    = 0
	maxAllocsBatch  = 0
)

func allocFixture(t testing.TB) (*graph.Graph, *graphgen.PurchaseGraph) {
	t.Helper()
	pl, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 2000, NumEdges: 10000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 7, VertexMeta: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers: 800, NumProducts: 300,
		PurchasesPerCustomerMean: 8, PopularityExponent: 2.3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl, bip
}

func checkAllocs(t *testing.T, name string, budget float64, run func()) {
	t.Helper()
	// Warm the workspace so one-time capacity growth is excluded; the
	// AllocsPerRun warmup call alone would fold growth into run 1 of 1.
	run()
	run()
	if got := testing.AllocsPerRun(10, run); got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, budget)
	}
}

func TestKernelAllocBudgets(t *testing.T) {
	pl, bip := allocFixture(t)
	ws := NewWorkspace(pl.NumVertices())
	wsBip := NewWorkspace(bip.Graph.NumVertices())
	hub := hubAndLeaf(pl)[0]

	checkAllocs(t, "BFS", maxAllocsBFS, func() {
		ws.BFS(pl, Query{Op: OpBFS, Start: hub, Depth: 3})
	})
	checkAllocs(t, "BoundedSSSP", maxAllocsSSSP, func() {
		ws.BoundedSSSP(pl, Query{Op: OpSSSP, Start: hub, Target: hub ^ 1, Depth: 5})
	})
	checkAllocs(t, "CollabFilter", maxAllocsCollab, func() {
		wsBip.CollabFilter(bip.Graph, Query{Op: OpCollab, Start: bip.ProductVertex(0), SimilarityThreshold: 0.1})
	})
	checkAllocs(t, "RandomWalk", maxAllocsRWR, func() {
		ws.RandomWalk(pl, Query{Op: OpRWR, Start: hub, Steps: 500, RestartProb: 0.15, TopK: 10, Seed: 3})
	})
}

// ExecuteIn adds only dispatch and validation on top of the kernels;
// it must stay on the same zero-alloc budget.
func TestExecuteInAllocBudget(t *testing.T) {
	pl, _ := allocFixture(t)
	ws := NewWorkspace(pl.NumVertices())
	hub := hubAndLeaf(pl)[0]
	q := Query{Op: OpBFS, Start: hub, Depth: 3}
	checkAllocs(t, "ExecuteIn/BFS", maxAllocsBFS, func() {
		if _, _, err := ExecuteIn(ws, pl, q); err != nil {
			t.Fatal(err)
		}
	})
}

// A predicate reads each visited entity's properties through a view of
// the graph's flat columns, so filtering costs no allocation: a depth-2
// BFS with a compiled vertex and edge filter allocates exactly what the
// same BFS allocates without them.
func TestPredicateBFSAllocsLikePlainBFS(t *testing.T) {
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 2000, NumEdges: 10000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 7, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(g.NumVertices())
	plain := Query{Op: OpBFS, Start: hubAndLeaf(g)[0], Depth: 2}
	filtered := plain
	filtered.VertexPred = predicate.MustCompile(`uid >= 0 && has(name) && !(gender == true && uid < 0)`)
	filtered.EdgePred = predicate.MustCompile(`retweet_ts >= 0`)
	// Both filters accept everything, so the two runs do the same work —
	// and a filter that rejects shows they are evaluated at all.
	want, _ := ws.BFS(g, plain)
	if got, _ := ws.BFS(g, filtered); got.Visited != want.Visited || want.Visited < 10 {
		t.Fatalf("accept-all filters visit %d, plain BFS %d", got.Visited, want.Visited)
	}
	rejecting := filtered
	rejecting.EdgePred = predicate.MustCompile(`retweet_ts < 0`)
	if got, _ := ws.BFS(g, rejecting); got.Visited != 1 {
		t.Fatalf("reject-all edge filter visits %d, want only the start", got.Visited)
	}
	run := func(q Query) float64 {
		ws.BFS(g, q)
		return testing.AllocsPerRun(10, func() { ws.BFS(g, q) })
	}
	if p, f := run(plain), run(filtered); f != p {
		t.Errorf("filtered BFS: %.1f allocs/op, plain BFS %.1f", f, p)
	}
}

// The batched path runs the same wave routines over up to MaxBatch
// slots; a warmed width-16 mixed BFS/SSSP Run must stay on the kernels'
// zero budget.
func TestBatchRunAllocBudget(t *testing.T) {
	pl, _ := allocFixture(t)
	hub := hubAndLeaf(pl)[0]
	n := graph.VertexID(pl.NumVertices())
	queries := make([]Query, 16)
	for i := range queries {
		start := (hub + graph.VertexID(i)*37) % n
		if i%2 == 0 {
			queries[i] = Query{Op: OpBFS, Start: start, Depth: 3}
		} else {
			queries[i] = Query{Op: OpSSSP, Start: start, Target: (start + 501) % n, Depth: 5}
		}
	}
	b := NewBatch(pl.NumVertices())
	checkAllocs(t, "Batch.Run/16", maxAllocsBatch, func() {
		if _, _, _, err := b.Run(pl, queries); err != nil {
			t.Fatal(err)
		}
	})
}
