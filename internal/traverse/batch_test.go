package traverse

import (
	"fmt"
	"reflect"
	"testing"

	"subtrav/internal/graph"
)

// The batch differential suite pins multi-source lockstep execution
// bit-for-bit against independent single-source runs: for every query
// in a batch, Result, Trace.Accesses, and Trace.Touched must be
// identical to what the single-source Workspace kernel produces — so
// batching provably changes only the cost of a query mix, never its
// outputs.

// batchableQueries filters the differential battery down to the ops a
// Batch accepts.
func batchableQueries(name string, g *graph.Graph, starts []graph.VertexID) []Query {
	var out []Query
	for _, q := range diffQueries(g, starts) {
		if !Batchable(q.Op) || skipPredWithoutSocialProps(name, q) {
			continue
		}
		out = append(out, q)
	}
	return out
}

// assertBatchMatchesSingle runs queries through b as one batch and
// through a single-source Workspace one at a time, comparing outputs
// per slot.
func assertBatchMatchesSingle(t *testing.T, label string, b *Batch, g *graph.Graph, queries []Query) {
	t.Helper()
	results, traces, shared, err := b.Run(g, queries)
	if err != nil {
		t.Fatalf("%s: batch run failed: %v", label, err)
	}
	if len(results) != len(queries) || len(traces) != len(queries) {
		t.Fatalf("%s: got %d results / %d traces for %d queries",
			label, len(results), len(traces), len(queries))
	}
	ws := NewWorkspace(g.NumVertices())
	var sumAccesses, sumScans, sharedScans int
	for i, q := range queries {
		wantRes, wantTr, err := ExecuteIn(ws, g, q)
		if err != nil {
			t.Fatalf("%s: single-source run %d failed: %v", label, i, err)
		}
		if !reflect.DeepEqual(wantRes, results[i]) {
			t.Fatalf("%s: slot %d (%s start=%d): Result mismatch:\nsingle: %+v\nbatch:  %+v",
				label, i, q.Op, q.Start, wantRes, results[i])
		}
		if !accessesEqual(wantTr.Accesses, traces[i].Accesses) {
			t.Fatalf("%s: slot %d (%s start=%d): Trace.Accesses diverge (single %d entries, batch %d)",
				label, i, q.Op, q.Start, len(wantTr.Accesses), len(traces[i].Accesses))
		}
		if !touchedEqual(wantTr.Touched, traces[i].Touched) {
			t.Fatalf("%s: slot %d (%s start=%d): Trace.Touched diverge (single %d, batch %d)",
				label, i, q.Op, q.Start, len(wantTr.Touched), len(traces[i].Touched))
		}
		sumAccesses += len(traces[i].Accesses)
		for _, a := range traces[i].Accesses {
			sumScans += int(a.ScannedEdges)
		}
	}

	// Shared-trace invariants: the wave union never exceeds the sum of
	// the per-query traces; scan work is conserved exactly; Touched is
	// duplicate-free and covers exactly the union of per-query touches.
	if len(shared.Accesses) > sumAccesses {
		t.Fatalf("%s: shared trace has %d accesses, more than the per-query sum %d",
			label, len(shared.Accesses), sumAccesses)
	}
	for _, a := range shared.Accesses {
		sharedScans += int(a.ScannedEdges)
	}
	if sharedScans != sumScans {
		t.Fatalf("%s: shared trace carries %d scanned edges, per-query sum is %d",
			label, sharedScans, sumScans)
	}
	union := map[graph.VertexID]bool{}
	for i := range queries {
		for _, v := range traces[i].Touched {
			union[v] = true
		}
	}
	sharedSet := map[graph.VertexID]bool{}
	for _, v := range shared.Touched {
		if sharedSet[v] {
			t.Fatalf("%s: shared.Touched contains %d twice", label, v)
		}
		sharedSet[v] = true
	}
	if len(sharedSet) != len(union) {
		t.Fatalf("%s: shared.Touched covers %d vertices, union of per-query Touched is %d",
			label, len(sharedSet), len(union))
	}
	for v := range union {
		if !sharedSet[v] {
			t.Fatalf("%s: vertex %d touched by a query but missing from shared.Touched", label, v)
		}
	}
}

func TestBatchMatchesSingleSource(t *testing.T) {
	for _, dg := range diffGraphs(t) {
		dg := dg
		t.Run(dg.name, func(t *testing.T) {
			queries := batchableQueries(dg.name, dg.g, dg.starts)
			if len(queries) < 2 {
				t.Fatalf("battery too small: %d", len(queries))
			}
			// One Batch reused across every grouping, so epoch-reset
			// state must not leak between runs.
			b := NewBatch(dg.g.NumVertices())
			for _, size := range []int{1, 2, 5, len(queries)} {
				if size > MaxBatch {
					size = MaxBatch
				}
				for lo := 0; lo < len(queries); lo += size {
					hi := lo + size
					if hi > len(queries) {
						hi = len(queries)
					}
					label := fmt.Sprintf("%s[%d:%d]", dg.name, lo, hi)
					assertBatchMatchesSingle(t, label, b, dg.g, queries[lo:hi])
				}
			}
		})
	}
}

// TestBatchOverlappingQueriesShareWaveLoads is the point of the whole
// layer: K identical hub queries batched together emit a shared trace
// no bigger than one query's own trace, while the per-query traces
// still account K times the work.
func TestBatchOverlappingQueriesShareWaveLoads(t *testing.T) {
	dg := diffGraphs(t)[1] // power-law
	hub := dg.starts[0]
	q := Query{Op: OpBFS, Start: hub, Depth: 3}
	const k = 8
	queries := make([]Query, k)
	for i := range queries {
		queries[i] = q
	}
	b := NewBatch(dg.g.NumVertices())
	_, traces, shared, err := b.Run(dg.g, queries)
	if err != nil {
		t.Fatal(err)
	}
	single := len(traces[0].Accesses)
	if single == 0 {
		t.Fatal("hub BFS touched nothing; fixture broken")
	}
	if len(shared.Accesses) != single {
		t.Errorf("shared trace = %d accesses for %d identical queries, want %d (one query's worth)",
			len(shared.Accesses), k, single)
	}
	var sum int
	for i := range traces {
		sum += len(traces[i].Accesses)
	}
	if sum != k*single {
		t.Errorf("per-query traces sum to %d accesses, want %d", sum, k*single)
	}
}

// TestBatchSharedScratchInterleaved drives two Batches over one shared
// BatchScratch — the simulator's configuration — and checks outputs
// stay pinned to single-source runs.
func TestBatchSharedScratchInterleaved(t *testing.T) {
	dg := diffGraphs(t)[1]
	queries := batchableQueries(dg.name, dg.g, dg.starts)
	sc := NewBatchScratch(dg.g.NumVertices())
	bs := []*Batch{NewBatchWithScratch(sc), NewBatchWithScratch(sc)}
	for round := 0; round < 4; round++ {
		lo := (round * 3) % (len(queries) - 4)
		assertBatchMatchesSingle(t, fmt.Sprintf("round%d", round),
			bs[round%2], dg.g, queries[lo:lo+4])
	}
}

func TestBatchRejectsBadInput(t *testing.T) {
	dg := diffGraphs(t)[0]
	b := NewBatch(dg.g.NumVertices())
	if _, _, _, err := b.Run(dg.g, nil); err == nil {
		t.Error("empty batch accepted")
	}
	big := make([]Query, MaxBatch+1)
	for i := range big {
		big[i] = Query{Op: OpBFS, Start: 0, Depth: 1}
	}
	if _, _, _, err := b.Run(dg.g, big); err == nil {
		t.Errorf("batch of %d accepted, max is %d", len(big), MaxBatch)
	}
	if _, _, _, err := b.Run(dg.g, []Query{{Op: OpCollab, Start: 0}}); err == nil {
		t.Error("non-batchable op accepted")
	}
	if _, _, _, err := b.Run(dg.g, []Query{{Op: OpBFS, Start: -1, Depth: 1}}); err == nil {
		t.Error("invalid start vertex accepted")
	}
	if !Batchable(OpBFS) || !Batchable(OpSSSP) || Batchable(OpCollab) || Batchable(OpRWR) {
		t.Error("Batchable op set wrong")
	}
}

// TestBatchMaxBatchSlots exercises all 32 bitmask slots at once,
// including bit 31 (the int32 sign bit in the dense mask maps).
func TestBatchMaxBatchSlots(t *testing.T) {
	dg := diffGraphs(t)[1]
	queries := make([]Query, MaxBatch)
	for i := range queries {
		start := dg.starts[i%len(dg.starts)]
		if i%2 == 0 {
			queries[i] = Query{Op: OpBFS, Start: start, Depth: 2 + i%3}
		} else {
			queries[i] = Query{Op: OpSSSP, Start: start,
				Target: dg.starts[(i+1)%len(dg.starts)], Depth: 4}
		}
	}
	b := NewBatch(dg.g.NumVertices())
	assertBatchMatchesSingle(t, "full-width", b, dg.g, queries)
}
