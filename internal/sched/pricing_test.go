package sched

import (
	"math"
	"testing"

	"subtrav/internal/auction"
	"subtrav/internal/graph"
)

// benefitOn returns the benefit of row's arc to unit col.
func benefitOn(t *testing.T, row []auction.Arc, col int) float64 {
	t.Helper()
	for _, e := range row {
		if e.Col == col {
			return e.Benefit
		}
	}
	t.Fatalf("no arc to unit %d in %+v", col, row)
	return 0
}

// Eq. 4 is priced where the auction's arcs are built: under SCH each
// arc is the row's ScoreAnchors over w_p + ε̃, under the ablation the
// raw score, and w_p (like Eq. 3's n_p inside the score) counts the
// tasks this batch already placed. The arcs are read from the problem
// the last segment handed the auctioneer.
func TestAuctionPricesArcsByEq4(t *testing.T) {
	t.Parallel()
	for _, aware := range []bool{true, false} {
		sch, sigs, clock, _ := auctionFixture(t, 2, aware)
		t.Run(sch.Name(), func(t *testing.T) {
			for _, p := range []int32{0, 1} {
				for v := range 3 {
					sigs.Record(graph.VertexID(4+v), p, 1)
				}
			}
			clock.Set(100) // after the visits: Eq. 3's decay reads n_p
			units := []UnitState{
				&stubUnit{queue: 3, completed: 2, memory: 4 << 20},
				&stubUnit{queue: 1, memory: 4 << 20},
			}
			tasks := mkTasks(5, 5, 5)
			out := sch.Assign(tasks, units)
			// Two segments: the third task is the last one's only row,
			// scored and priced after the first two were placed.
			placed := make([]int, len(units))
			for _, u := range out[:2] {
				placed[u]++
			}
			row := sch.rows[0]
			if len(row) != len(units) {
				t.Fatalf("last segment's row = %+v, want an arc to each unit", row)
			}
			anchors := appendAnchors(nil, tasks[2])
			for _, e := range row {
				wp := units[e.Col].QueueLen() + placed[e.Col]
				want := sch.scorer.ScoreAnchors(anchors, int32(e.Col), batchView{UnitState: units[e.Col], extra: placed[e.Col]})
				if aware {
					want = want / (float64(wp) + epsilonTilde)
				}
				if e.Benefit != want {
					t.Errorf("arc to unit %d (w_p %d) = %v, want %v", e.Col, wp, e.Benefit, want)
				}
			}
		})
	}
}

// The cold-start arc enters the matrix unpriced and is priced by the
// same division as every other arc: ColdScore/(w_p + ε̃) under SCH,
// ColdScore itself under the ablation.
func TestColdArcPricedLikeAnyOther(t *testing.T) {
	t.Parallel()
	for _, aware := range []bool{true, false} {
		base, sigs, _, _ := auctionFixture(t, 2, aware)
		sch, err := NewAuction(base.scorer, AuctionConfig{NumUnits: 2, Epsilon: 1e-3, WorkloadAware: aware, ColdScore: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sch.Name(), func(t *testing.T) {
			for v := range 3 {
				sigs.Record(graph.VertexID(4+v), 0, 1) // affinity on unit 0 only
			}
			units := []UnitState{&stubUnit{queue: 4}, &stubUnit{queue: 2}} // unit 1 is the cold one
			sch.Assign(mkTasks(5), units)
			want := 0.3
			if aware {
				want = 0.3 / (2 + epsilonTilde)
			}
			if got := benefitOn(t, sch.rows[0], 1); got != want {
				t.Errorf("cold arc = %v, want %v", got, want)
			}
		})
	}
}

// At equal score an idle unit outbids a busy one, and an arc's
// benefit strictly falls as its unit's queue grows.
func TestEq4IdleUnitBeatsBusy(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 2, true)
	for _, p := range []int32{0, 1} {
		for v := range 3 {
			sigs.Record(graph.VertexID(4+v), p, 1) // score 1 on both units
		}
	}
	sch.Assign(mkTasks(5), []UnitState{&stubUnit{queue: 0}, &stubUnit{queue: 9}})
	idle, busy := benefitOn(t, sch.rows[0], 0), benefitOn(t, sch.rows[0], 1)
	if idle != 1/0.5 || busy != 1/9.5 || !(idle > busy) {
		t.Errorf("idle %v, busy %v: want 2 (score 1 / (0+0.5)) and 1/9.5", idle, busy)
	}
	prev := math.Inf(1)
	for q := 0; q <= 16; q++ {
		sch.Assign(mkTasks(5), []UnitState{&stubUnit{}, &stubUnit{queue: q}})
		b := benefitOn(t, sch.rows[0], 1)
		if !(b < prev) {
			t.Fatalf("benefit at queue %d = %v, not below %v at queue %d", q, b, prev, q-1)
		}
		prev = b
	}
}
