package traverse

import (
	"math"
	"reflect"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// subtractionPick is the weighted pick loop of RandomWalkReference with
// every similarity 1: the offset unitPick must reproduce.
func subtractionPick(pick float64, d int64) int64 {
	for s := int64(0); s < d; s++ {
		pick--
		if pick <= 0 {
			return s
		}
	}
	return d - 1
}

// TestUnitPickMatchesSubtraction holds the closed-form pick to the loop
// it replaces at the draws where an off-by-one in the ceiling or the
// cap would show: 0, the smallest draw, each j/d and one ulp either
// side of it, and the largest draw. A draw of 1 or 2, which the RNG
// never makes, puts pick past the last slot, where both fall back to
// it.
func TestUnitPickMatchesSubtraction(t *testing.T) {
	for d := int64(1); d <= 1024; d++ {
		draws := []float64{0, 0x1p-53, 1 - 0x1p-53, 1, 2}
		for j := int64(1); j < d; j++ {
			r := float64(j) / float64(d)
			draws = append(draws, math.Nextafter(r, 0), r, math.Nextafter(r, 1))
		}
		for _, r := range draws {
			pick := r * float64(d)
			if got, want := unitPick(pick, d), subtractionPick(pick, d); got != want {
				t.Fatalf("d=%d r=%v (pick %v): unitPick = %d, subtraction loop = %d", d, r, pick, got, want)
			}
		}
	}
}

// FuzzRandomWalk holds ws.RandomWalk to RandomWalkReference on a graph
// drawn from graphSeed: directed or undirected, weighted (with zero and
// tiny similarities among the draws) or not, with a hub at vertex 0.
// The query's start, length, restart probability, TopK (0, negative,
// 1, and beyond the ranking's length) and walk seed come from the
// input. CI runs it for ten seconds (fuzz-smoke); the seeds under
// testdata/fuzz run on every `go test`.
func FuzzRandomWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, graphSeed uint64, weighted bool, start uint16, steps uint16, restart uint8, topK int16, walkSeed uint64) {
		g := fuzzWalkGraph(graphSeed, weighted)
		q := Query{
			Op:          OpRWR,
			Start:       graph.VertexID(int(start) % g.NumVertices()),
			Steps:       1 + int(steps%2048),
			RestartProb: float64(restart) / 256,
			TopK:        int(topK % 512),
			Seed:        walkSeed,
		}
		want, wantTr := RandomWalkReference(g, q)
		ws := NewWorkspace(g.NumVertices())
		// A second walk on the same workspace checks that nothing of the
		// first leaks into it.
		for run := 0; run < 2; run++ {
			got, gotTr := ws.RandomWalk(g, q)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("run %d: Result mismatch:\nref: %+v\nws:  %+v", run, want, got)
			}
			if !accessesEqual(wantTr.Accesses, gotTr.Accesses) || !touchedEqual(wantTr.Touched, gotTr.Touched) {
				t.Fatalf("run %d: trace diverges from the reference", run)
			}
		}
	})
}

// fuzzWalkGraph builds a graph of 1–96 vertices and up to 8 edges a
// vertex. Edge heads skew towards low IDs, so vertex 0 is a hub.
func fuzzWalkGraph(seed uint64, weighted bool) *graph.Graph {
	rng := xrand.New(seed)
	n := 1 + rng.Intn(96)
	kind := graph.Directed
	if rng.Intn(2) == 0 {
		kind = graph.Undirected
	}
	b := graph.NewBuilder(kind, n)
	weights := []float32{0, 1e-6, 0.01, 0.5, 1, 3.75}
	for m := rng.Intn(8*n + 1); m > 0; m-- {
		src := graph.VertexID(rng.Intn(n))
		dst := graph.VertexID(rng.Intn(rng.Intn(n) + 1))
		w := float32(1)
		if weighted {
			w = weights[rng.Intn(len(weights))]
		}
		b.AddWeightedEdge(src, dst, w)
	}
	return b.Build()
}
