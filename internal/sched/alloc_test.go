package sched

import (
	"fmt"
	"testing"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/signature"
	"subtrav/internal/traverse"
	"subtrav/internal/xrand"
)

// allocFixture is one dispatch round's workload: p units with mixed
// queues and budgets over a seeded 4096-vertex random graph of average
// degree 8, a signature table pre-warmed the way a running cluster
// leaves it, and p tasks with locality-clustered starts, every fourth a
// bidirectional SSSP that adds a second affinity anchor. coldScore is
// the scheduler's AuctionConfig.ColdScore.
func allocFixture(t *testing.T, p int, coldScore float64) (*Auction, []*Task, []UnitState) {
	t.Helper()
	const n = 4096
	g, err := graphgen.Random(graphgen.RandomConfig{NumVertices: n, NumEdges: n * 4, Kind: graph.Undirected, Seed: 0x5EDBE7C4})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(uint64(p))
	// Each unit has traversed a contiguous region overlapping its
	// neighbor's by half; random visits give lists several entries.
	sigs := signature.NewTable(0)
	var now int64
	region := n / p
	for proc := 0; proc < p; proc++ {
		for v := proc * region; v < proc*region+region+region/2; v++ {
			now++
			sigs.Record(graph.VertexID(v%n), int32(proc), now)
		}
	}
	for i := 0; i < n; i++ {
		now++
		sigs.Record(graph.VertexID(rng.Intn(n)), int32(rng.Intn(p)), now)
	}
	clock := &signature.ManualClock{}
	clock.Set(now + 1)
	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	auc, err := NewAuction(scorer, AuctionConfig{NumUnits: p, Epsilon: 1e-3, WorkloadAware: true, ColdScore: coldScore})
	if err != nil {
		t.Fatal(err)
	}
	units := make([]UnitState, p)
	for i := range units {
		u := &stubUnit{queue: i % 5, busy: i%5 > 0, completed: 2, memory: 32 << 20}
		if i%7 == 0 {
			u.memory = 0 // unlimited buffer
		}
		units[i] = u
	}
	tasks := make([]*Task, p)
	for i := range tasks {
		start := graph.VertexID(rng.Intn(n))
		q := traverse.Query{Op: traverse.OpBFS, Start: start, Depth: 2}
		if target := graph.VertexID(rng.Intn(n)); i%4 == 3 && target != start {
			q = traverse.Query{Op: traverse.OpSSSP, Start: start, Target: target, Depth: 4}
		}
		tasks[i] = &Task{ID: int64(i), Query: q}
	}
	return auc, tasks, units
}

// TestAssignAllocatesOnlyWhatItReturns: on a warmed scheduler a round
// costs the allocator the placement slice the caller keeps — the unit
// views, anchors, affinity matrix, auction problem, matching and the
// placement detail Explained returns are all scratch. With ColdScore
// set, the cold arc joins its row as the row is copied into the auction
// problem; appended to the matrix row, whose capacity BuildAnchorsInto
// caps, it cost a new row each round.
func TestAssignAllocatesOnlyWhatItReturns(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, tc := range []struct {
		p    int
		cold float64
	}{{4, 0}, {64, 0}, {4, 0.3}, {64, 0.3}} {
		name := fmt.Sprintf("P=%d", tc.p)
		if tc.cold > 0 {
			name += fmt.Sprintf(",ColdScore=%g", tc.cold)
		}
		t.Run(name, func(t *testing.T) {
			auc, tasks, units := allocFixture(t, tc.p, tc.cold)
			auc.Assign(tasks, units) // warm-up
			if allocs := testing.AllocsPerRun(50, func() {
				auc.Assign(tasks, units)
			}); allocs > 1 {
				t.Errorf("Assign: %v allocs, want at most the 1 slice it returns", allocs)
			}
		})
	}
}
