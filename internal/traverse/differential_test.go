package traverse

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

// The differential suite pins the Workspace kernels bit-for-bit to the
// map-based reference kernels: identical Result (reflect.DeepEqual)
// and identical Trace.Accesses / Trace.Touched sequences, across graph
// families, all four ops, predicate paths, and MaxVisits caps. One
// Workspace is reused across every query of a family, so the suite
// also proves that epoch-reset state never leaks between executions.

type diffGraph struct {
	name string
	g    *graph.Graph
	// starts are representative query origins (hubs and leaves).
	starts []graph.VertexID
}

func diffGraphs(t testing.TB) []diffGraph {
	t.Helper()
	rnd, err := graphgen.Random(graphgen.RandomConfig{
		NumVertices: 400, NumEdges: 1600, Kind: graph.Undirected, Seed: 11, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 600, NumEdges: 3000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 12, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers: 300, NumProducts: 120,
		PurchasesPerCustomerMean: 6, PopularityExponent: 2.4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The only weighted family: it keeps RandomWalk's general pick
	// loop, which the unweighted graphs above skip, on the battery.
	img, err := graphgen.Images(graphgen.ImageCorpusConfig{
		NumPersons: 16, ImagesPerPersonMin: 6, ImagesPerPersonMax: 14,
		DescriptorDim: 16, IntraNoise: 0.15, KNN: 8, MinSimilarity: 0.45,
		CrossCandidates: 10, NumPartitions: 4,
		PhotoBytesMin: 10_000, PhotoBytesMax: 50_000, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []diffGraph{
		{"random", rnd, []graph.VertexID{0, 7, 399}},
		{"powerlaw", pl, hubAndLeaf(pl)},
		{"bipartite", bip.Graph, []graph.VertexID{
			bip.ProductVertex(0), bip.ProductVertex(5), bip.CustomerVertex(3),
		}},
		{"images", img.Graph, hubAndLeaf(img.Graph)},
	}
}

// hubAndLeaf picks the highest-degree vertex, a low-degree vertex, and
// vertex 0 — exercising both hub explosion and sparse neighborhoods.
func hubAndLeaf(g *graph.Graph) []graph.VertexID {
	hub, leaf := graph.VertexID(0), graph.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
		if g.Degree(id) < g.Degree(leaf) {
			leaf = id
		}
	}
	return []graph.VertexID{hub, leaf, 0}
}

// The battery's predicates: each rejects part of the social graphs'
// vertices or edges.
func diffVertexPred(p graph.Props) bool {
	uid, _ := p.Get("uid")
	return uid.Int64()%3 != 0
}

func diffEdgePred(p graph.Props) bool {
	ts, _ := p.Get("retweet_ts")
	return ts.Int64()%2 == 0
}

// diffQueries builds the query battery for one graph: plain, predicate
// and MaxVisits variants of every op. The BFS caps 1, 2, 1 + deg(start)
// and 2 + deg(start) put the expansion pass's stop (bfsWave) on the
// start's own pop, one vertex into the depth-1 frontier, exactly at the
// depth-1 wave's end, and one vertex past it. A capped BFS with a
// VertexPred must not stop early; one with an EdgePred only must.
func diffQueries(g *graph.Graph, starts []graph.VertexID) []Query {
	vPred, ePred := diffVertexPred, diffEdgePred
	var qs []Query
	for i, s := range starts {
		target := starts[(i+1)%len(starts)]
		deg := g.Degree(s)
		qs = append(qs,
			Query{Op: OpBFS, Start: s, Depth: 3},
			Query{Op: OpBFS, Start: s, Depth: 4, MaxVisits: 25},
			Query{Op: OpBFS, Start: s, Depth: 3, VertexPred: vPred, EdgePred: ePred},
			Query{Op: OpBFS, Start: s, Depth: 3, MaxVisits: 1},
			Query{Op: OpBFS, Start: s, Depth: 3, MaxVisits: 2},
			Query{Op: OpBFS, Start: s, Depth: 3, MaxVisits: 1 + deg},
			Query{Op: OpBFS, Start: s, Depth: 3, MaxVisits: 2 + deg},
			Query{Op: OpBFS, Start: s, Depth: 3, MaxVisits: 25, VertexPred: vPred},
			Query{Op: OpBFS, Start: s, Depth: 3, MaxVisits: 25, EdgePred: ePred},
			Query{Op: OpSSSP, Start: s, Target: target, Depth: 5},
			Query{Op: OpSSSP, Start: s, Target: target, Depth: 6, MaxVisits: 40},
			Query{Op: OpSSSP, Start: s, Target: target, Depth: 4, EdgePred: ePred},
			Query{Op: OpCollab, Start: s, SimilarityThreshold: 0.2},
			Query{Op: OpCollab, Start: s, SimilarityThreshold: 0},
			Query{Op: OpRWR, Start: s, Steps: 400, RestartProb: 0.15, TopK: 10, Seed: uint64(100 + i)},
			Query{Op: OpRWR, Start: s, Steps: 250, RestartProb: 0, TopK: 5, Seed: uint64(200 + i)},
		)
	}
	return qs
}

// Predicates read metadata only the social graphs carry; on the
// bipartite purchase graph and the image corpus they would dereference
// missing keys the same way in both kernels, which is fine, but skip
// the noise.
func skipPredWithoutSocialProps(name string, q Query) bool {
	return (name == "bipartite" || name == "images") && (q.VertexPred != nil || q.EdgePred != nil)
}

func assertSameExecution(t *testing.T, label string, g *graph.Graph, q Query, ws *Workspace) {
	t.Helper()
	refRes, refTr, refErr := ExecuteReference(g, q)
	wsRes, wsTr, wsErr := ExecuteIn(ws, g, q)
	if (refErr == nil) != (wsErr == nil) {
		t.Fatalf("%s: error mismatch: ref=%v ws=%v", label, refErr, wsErr)
	}
	if refErr != nil {
		return
	}
	if !reflect.DeepEqual(refRes, wsRes) {
		t.Fatalf("%s: Result mismatch:\nref: %+v\nws:  %+v", label, refRes, wsRes)
	}
	if !accessesEqual(refTr.Accesses, wsTr.Accesses) {
		t.Fatalf("%s: Trace.Accesses diverge (ref %d entries, ws %d)",
			label, len(refTr.Accesses), len(wsTr.Accesses))
	}
	if !touchedEqual(refTr.Touched, wsTr.Touched) {
		t.Fatalf("%s: Trace.Touched diverge (ref %d, ws %d)",
			label, len(refTr.Touched), len(wsTr.Touched))
	}
}

func accessesEqual(a, b []Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func touchedEqual(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWorkspaceKernelsMatchReference(t *testing.T) {
	for _, dg := range diffGraphs(t) {
		dg := dg
		t.Run(dg.name, func(t *testing.T) {
			ws := NewWorkspace(dg.g.NumVertices())
			for qi, q := range diffQueries(dg.g, dg.starts) {
				if skipPredWithoutSocialProps(dg.name, q) {
					continue
				}
				label := fmt.Sprintf("q%d(%s start=%d)", qi, q.Op, q.Start)
				assertSameExecution(t, label, dg.g, q, ws)
			}
		})
	}
}

// TestWorkspaceSharedScratchMatchesReference interleaves two
// Workspaces over one shared Scratch — the simulator's configuration —
// and checks each still reproduces the reference exactly.
func TestWorkspaceSharedScratchMatchesReference(t *testing.T) {
	dgs := diffGraphs(t)
	dg := dgs[1] // power-law: the roughest degree distribution
	sc := NewScratch(dg.g.NumVertices())
	wss := []*Workspace{NewWorkspaceWithScratch(sc), NewWorkspaceWithScratch(sc)}
	for qi, q := range diffQueries(dg.g, dg.starts) {
		if skipPredWithoutSocialProps(dg.name, q) {
			continue
		}
		label := fmt.Sprintf("q%d(%s start=%d)", qi, q.Op, q.Start)
		assertSameExecution(t, label, dg.g, q, wss[qi%2])
	}
}

// TestOneShotWrappersMatchReference pins the package-level entry
// points (fresh Workspace per call) the executors' callers still use.
func TestOneShotWrappersMatchReference(t *testing.T) {
	dg := diffGraphs(t)[0]
	for qi, q := range diffQueries(dg.g, dg.starts) {
		if skipPredWithoutSocialProps(dg.name, q) {
			continue
		}
		refRes, refTr, refErr := ExecuteReference(dg.g, q)
		res, tr, err := Execute(dg.g, q)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("q%d: error mismatch: ref=%v got=%v", qi, refErr, err)
		}
		if refErr != nil {
			continue
		}
		if !reflect.DeepEqual(refRes, res) {
			t.Fatalf("q%d: Result mismatch:\nref: %+v\ngot: %+v", qi, refRes, res)
		}
		if !accessesEqual(refTr.Accesses, tr.Accesses) || !touchedEqual(refTr.Touched, tr.Touched) {
			t.Fatalf("q%d: trace mismatch", qi)
		}
	}
}

// TestPoolConcurrentCheckout hammers a Pool from many goroutines (run
// under -race in CI): every borrowed Workspace must reproduce the
// reference result regardless of which executions it previously ran.
func TestPoolConcurrentCheckout(t *testing.T) {
	dg := diffGraphs(t)[1]
	queries := diffQueries(dg.g, dg.starts)
	pool := NewPool(dg.g.NumVertices())

	// Precompute expected outputs once, serially.
	type expectation struct {
		res Result
		tr  Trace
	}
	want := make([]expectation, len(queries))
	for i, q := range queries {
		res, tr, err := ExecuteReference(dg.g, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = expectation{res, *tr}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i := range queries {
					qi := (i + w) % len(queries)
					ws := pool.Get()
					res, tr, err := ExecuteIn(ws, dg.g, queries[qi])
					if err != nil {
						pool.Put(ws)
						errs <- err
						return
					}
					ok := reflect.DeepEqual(want[qi].res, res.Clone()) &&
						accessesEqual(want[qi].tr.Accesses, tr.Accesses) &&
						touchedEqual(want[qi].tr.Touched, tr.Touched)
					pool.Put(ws)
					if !ok {
						errs <- fmt.Errorf("worker %d rep %d q%d: output diverged from reference", w, rep, qi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResultClone verifies Clone detaches the slices from workspace
// reuse.
func TestResultClone(t *testing.T) {
	dg := diffGraphs(t)[2] // bipartite: produces recommendations
	ws := NewWorkspace(dg.g.NumVertices())
	q := Query{Op: OpCollab, Start: dg.starts[0], SimilarityThreshold: 0}
	res, _, err := ExecuteIn(ws, dg.g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 {
		t.Skip("fixture produced no recommendations; pick a busier product")
	}
	clone := res.Clone()
	if !reflect.DeepEqual(clone, res) {
		t.Fatal("clone differs from original before reuse")
	}
	// Clobber the workspace with a different execution; the clone must
	// be unaffected.
	if _, _, err := ExecuteIn(ws, dg.g, Query{Op: OpCollab, Start: dg.starts[1], SimilarityThreshold: 0}); err != nil {
		t.Fatal(err)
	}
	want, _, err := ExecuteReference(dg.g, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clone, want) {
		t.Fatal("clone mutated by workspace reuse")
	}
}

// TestCappedBFSStopsAtTheNextWavesLastPop counts the edge slots a
// capped BFS examines. With the cap inside the depth-3 frontier of the
// power-law family's hub, the depth-2 wave's expansion must end at the
// slot that enqueues the need-th new vertex, need being the visits the
// cap has left; every earlier wave scans all of its frontier's slots.
// An always-true EdgePred counts the slots, and this test's own
// level-by-level walk says how many there should be.
func TestCappedBFSStopsAtTheNextWavesLastPop(t *testing.T) {
	dg := diffGraphs(t)[1]
	g, hub := dg.g, dg.starts[0]

	// The hub's levels 0–3, each in enqueue order.
	levels := [][]graph.VertexID{{hub}}
	depth := map[graph.VertexID]int{hub: 0}
	for d := 0; d < 3; d++ {
		var next []graph.VertexID
		for _, v := range levels[d] {
			for _, u := range g.Neighbors(v) {
				if _, ok := depth[u]; !ok {
					depth[u] = d + 1
					next = append(next, u)
				}
			}
		}
		levels = append(levels, next)
	}
	if len(levels[3]) < 2 {
		t.Fatalf("fixture: the hub's depth-3 frontier has %d vertices, want >= 2", len(levels[3]))
	}
	need := len(levels[3]) / 2
	q := Query{Op: OpBFS, Start: hub, Depth: 3,
		MaxVisits: len(levels[0]) + len(levels[1]) + len(levels[2]) + need}

	// The slots examined: all of waves 0 and 1, then wave 2's up to and
	// including the one that enqueues the need-th depth-3 vertex.
	want := 0
	for _, level := range levels[:2] {
		for _, v := range level {
			want += g.Degree(v)
		}
	}
	enqueued := map[graph.VertexID]bool{}
scan:
	for _, v := range levels[2] {
		for _, u := range g.Neighbors(v) {
			want++
			if depth[u] == 3 && !enqueued[u] {
				enqueued[u] = true
				if len(enqueued) == need {
					break scan
				}
			}
		}
	}

	var evals, refEvals int
	counting := func(n *int) graph.Predicate {
		return func(graph.Props) bool { *n++; return true }
	}
	q.EdgePred = counting(&evals)
	got, gotTr := NewWorkspace(g.NumVertices()).BFS(g, q)
	q.EdgePred = counting(&refEvals)
	ref, refTr := BFSReference(g, q)
	if evals != want {
		t.Errorf("EdgePred evaluated %d times, want %d (the reference, which expands every popped vertex, evaluates it %d times)",
			evals, want, refEvals)
	}
	if evals >= refEvals {
		t.Errorf("the stop saved nothing: %d evaluations, reference %d", evals, refEvals)
	}
	if !reflect.DeepEqual(ref, got) || got.Visited != q.MaxVisits {
		t.Fatalf("Result %+v, reference %+v, want %d visits", got, ref, q.MaxVisits)
	}
	if !accessesEqual(refTr.Accesses, gotTr.Accesses) || !touchedEqual(refTr.Touched, gotTr.Touched) {
		t.Fatal("trace diverges from the reference")
	}
	t.Logf("levels %d/%d/%d/%d, cap %d: %d evaluations, the reference %d",
		len(levels[0]), len(levels[1]), len(levels[2]), len(levels[3]), q.MaxVisits, evals, refEvals)
}

// FuzzBFS holds the BFS wave engine to BFSReference on the differential
// graphs, solo and in a two-slot Batch beside a fixed capped query from
// the family's first start. The input picks the graph, the start, Depth
// 0–5, MaxVisits 0–64 and whether each predicate is on. The seeds under
// testdata/fuzz/FuzzBFS include the caps 1, 2, 1 + deg(start) and
// 2 + deg(start), where the expansion pass's stop lands on a wave's
// edge. CI runs it for ten seconds (fuzz-smoke).
func FuzzBFS(f *testing.F) {
	dgs := diffGraphs(f)
	f.Fuzz(func(t *testing.T, graphIdx uint8, start uint16, depth uint8, maxVisits uint8, withVertexPred, withEdgePred bool) {
		dg := dgs[int(graphIdx)%len(dgs)]
		g := dg.g
		q := Query{
			Op:        OpBFS,
			Start:     graph.VertexID(int(start) % g.NumVertices()),
			Depth:     int(depth % 6),
			MaxVisits: int(maxVisits % 65),
		}
		if withVertexPred {
			q.VertexPred = diffVertexPred
		}
		if withEdgePred {
			q.EdgePred = diffEdgePred
		}
		fixed := Query{Op: OpBFS, Start: dg.starts[0], Depth: 3, MaxVisits: 25}
		queries := []Query{q, fixed}

		got, gotTr := NewWorkspace(g.NumVertices()).BFS(g, q)
		results, traces, _, err := NewBatch(g.NumVertices()).Run(g, queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, query := range queries {
			want, wantTr := BFSReference(g, query)
			if i == 0 && (!reflect.DeepEqual(want, got) ||
				!accessesEqual(wantTr.Accesses, gotTr.Accesses) || !touchedEqual(wantTr.Touched, gotTr.Touched)) {
				t.Fatalf("%s %+v: solo run diverges from the reference:\nref: %+v\nws:  %+v", dg.name, q, want, got)
			}
			if !reflect.DeepEqual(want, results[i]) ||
				!accessesEqual(wantTr.Accesses, traces[i].Accesses) || !touchedEqual(wantTr.Touched, traces[i].Touched) {
				t.Fatalf("%s %+v: batch slot %d diverges from the reference:\nref:   %+v\nbatch: %+v", dg.name, query, i, want, results[i])
			}
		}
	})
}
