package sched

import (
	"strings"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/obs"
)

// TestAffinityHitTelemetry pins the tradeoff telemetry: a task with a
// clear best-affinity unit that wins its auction counts as an
// affinity hit with a positive win margin, while an affinity-less
// task counts as neither eligible nor a hit.
func TestAffinityHitTelemetry(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 3, true)
	// Vertex 5's closure {4,5,6}: fully visited by unit 0, one vertex
	// by unit 1 — two arcs, unit 0 clearly best.
	for _, v := range []graph.VertexID{4, 5, 6} {
		sigs.Record(v, 0, 1)
	}
	sigs.Record(4, 1, 1)
	units := []UnitState{&stubUnit{}, &stubUnit{}, &stubUnit{}}

	out, expl := sch.Assign(mkTasks(5), units), sch.Explained()
	if out[0] != 0 {
		t.Fatalf("task placed on unit %d, want best-affinity unit 0", out[0])
	}
	if !expl[0].Preferred {
		t.Errorf("Preferred = false for a task placed on its best-affinity unit")
	}
	if expl[0].WinMargin <= 0 {
		t.Errorf("WinMargin = %g, want > 0 for a decisive two-arc win", expl[0].WinMargin)
	}
	if eligible, hits := sch.AffinityStats(); eligible != 1 || hits != 1 {
		t.Errorf("AffinityStats = (%d, %d), want (1, 1)", eligible, hits)
	}

	// A start vertex no unit has ever visited: empty row, not eligible.
	sch.Assign(mkTasks(9), units)
	expl = sch.Explained()
	if !expl[0].EmptyRow {
		t.Fatalf("expected an empty affinity row for an unvisited start")
	}
	if expl[0].Preferred {
		t.Errorf("Preferred = true for an empty-row task")
	}
	if eligible, hits := sch.AffinityStats(); eligible != 1 || hits != 1 {
		t.Errorf("AffinityStats after empty-row task = (%d, %d), want (1, 1)", eligible, hits)
	}
}

// TestAuctionRegisterExposesTradeoffSeries checks the new series reach
// the exposition with sane values.
func TestAuctionRegisterExposesTradeoffSeries(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 3, true)
	for _, v := range []graph.VertexID{4, 5, 6} {
		sigs.Record(v, 0, 1)
	}
	sigs.Record(4, 1, 1)
	units := []UnitState{&stubUnit{}, &stubUnit{}, &stubUnit{}}
	sch.Assign(mkTasks(5), units)

	reg := obs.NewRegistry()
	sch.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"subtrav_sched_affinity_eligible_total 1",
		"subtrav_sched_affinity_hits_total 1",
		"subtrav_sched_affinity_hit_ratio 1",
		"subtrav_sched_auction_win_margin_micro_count 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}
