package sched

import (
	"testing"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/signature"
	"subtrav/internal/traverse"
)

// stubUnit is a canned UnitState.
type stubUnit struct {
	queue     int
	busy      bool
	completed int
	memory    int64
}

func (s *stubUnit) QueueLen() int              { return s.queue }
func (s *stubUnit) Busy() bool                 { return s.busy }
func (s *stubUnit) CompletedSince(t int64) int { return s.completed }
func (s *stubUnit) MemoryBudget() int64        { return s.memory }

func mkUnits(n int) []UnitState {
	units := make([]UnitState, n)
	for i := range units {
		units[i] = &stubUnit{}
	}
	return units
}

func mkTasks(starts ...graph.VertexID) []*Task {
	tasks := make([]*Task, len(starts))
	for i, v := range starts {
		tasks[i] = &Task{ID: int64(i), Query: traverse.Query{Op: traverse.OpBFS, Start: v, Depth: 1}}
	}
	return tasks
}

func TestBaselinePrefersFreeUnits(t *testing.T) {
	t.Parallel()
	units := []UnitState{
		&stubUnit{busy: true, queue: 3},
		&stubUnit{}, // the only free unit
		&stubUnit{busy: true, queue: 1},
	}
	b := NewBaseline(1)
	for trial := 0; trial < 20; trial++ {
		got := b.Assign(mkTasks(0), units)
		if got[0] != 1 {
			t.Fatalf("trial %d: assigned to %d, want the free unit 1", trial, got[0])
		}
	}
}

func TestBaselineAllBusyStillPlaces(t *testing.T) {
	t.Parallel()
	units := []UnitState{
		&stubUnit{busy: true, queue: 2},
		&stubUnit{busy: true, queue: 2},
	}
	b := NewBaseline(2)
	counts := map[int]int{}
	for trial := 0; trial < 200; trial++ {
		got := b.Assign(mkTasks(0), units)
		counts[got[0]]++
	}
	// Random placement: both units should receive a fair share.
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("random placement skewed: %v", counts)
	}
}

func TestBaselineBatchFillsFreeUnitsFirst(t *testing.T) {
	t.Parallel()
	units := mkUnits(3)
	b := NewBaseline(3)
	got := b.Assign(mkTasks(0, 1, 2), units)
	seen := map[int]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatalf("two tasks on unit %d while free units remained: %v", u, got)
		}
		seen[u] = true
	}
}

func TestRoundRobinCycles(t *testing.T) {
	t.Parallel()
	units := mkUnits(3)
	r := NewRoundRobin()
	got := r.Assign(mkTasks(0, 1, 2, 3), units)
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin = %v, want %v", got, want)
		}
	}
	// State persists across calls.
	got2 := r.Assign(mkTasks(4), units)
	if got2[0] != 1 {
		t.Errorf("second call = %d, want 1", got2[0])
	}
}

func TestLeastLoaded(t *testing.T) {
	t.Parallel()
	units := []UnitState{
		&stubUnit{queue: 5},
		&stubUnit{queue: 1},
		&stubUnit{queue: 3},
	}
	got := NewLeastLoaded().Assign(mkTasks(0, 1, 2, 3), units)
	// Unit 1 (load 1) takes tasks until it reaches the next load
	// level: placements 1,1,1? No — extra counts: after first, unit1
	// load=2; second → unit1 (2<3); third → unit1 (3)=unit2(3)? tie →
	// lower index among [5,4?]. Verify resulting loads are balanced.
	loads := []int{5, 1, 3}
	for _, u := range got {
		loads[u]++
	}
	if loads[1] > loads[2]+1 || loads[2] > loads[0] {
		t.Errorf("assignments %v left loads %v unbalanced", got, loads)
	}
	// Busy units count one extra.
	busy := []UnitState{
		&stubUnit{queue: 0, busy: true},
		&stubUnit{queue: 0},
	}
	if got := NewLeastLoaded().Assign(mkTasks(0), busy); got[0] != 1 {
		t.Errorf("busy unit chosen over idle: %v", got)
	}
}

// auctionFixture builds a small graph, signature table and scorer for
// auction scheduler tests.
func auctionFixture(t *testing.T, numUnits int, workloadAware bool) (*Auction, *signature.Table, *signature.ManualClock, *graph.Graph) {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected, 10)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	sigs := signature.NewTable(0)
	clock := &signature.ManualClock{}
	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewAuction(scorer, AuctionConfig{
		NumUnits:      numUnits,
		Epsilon:       1e-3,
		WorkloadAware: workloadAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sch, sigs, clock, g
}

func TestAuctionFollowsAffinity(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 3, true)
	units := mkUnits(3)
	// Unit 2 visited vertex 5 and its neighbors: strong affinity.
	sigs.Record(4, 2, 1)
	sigs.Record(5, 2, 1)
	sigs.Record(6, 2, 1)
	got := sch.Assign(mkTasks(5), units)
	if got[0] != 2 {
		t.Errorf("task placed on %d, want affinitive unit 2", got[0])
	}
	rounds, auctioned, _, _ := sch.Stats()
	if rounds != 1 || auctioned != 1 {
		t.Errorf("stats: rounds=%d auctioned=%d", rounds, auctioned)
	}
}

func TestAuctionFallsBackWithoutSignatures(t *testing.T) {
	t.Parallel()
	sch, _, _, _ := auctionFixture(t, 3, true)
	units := []UnitState{
		&stubUnit{queue: 4},
		&stubUnit{queue: 0},
		&stubUnit{queue: 2},
	}
	// No signatures: empty affinity rows → least-loaded fallback.
	got := sch.Assign(mkTasks(1, 2), units)
	if got[0] != 1 {
		t.Errorf("first fallback to %d, want least-loaded 1", got[0])
	}
	// Second task sees unit 1 with one extra pending.
	if got[1] != 1 && got[1] != 2 {
		t.Errorf("second fallback to %d, want 1 (load 1) or 2 (load 2)? want 1", got[1])
	}
	_, _, followed, emptyRows := sch.Stats()
	if followed != 0 || emptyRows != 2 {
		t.Errorf("fallback stats: followed=%d emptyRows=%d", followed, emptyRows)
	}
}

func TestAuctionBalancesBetweenEquallyAffinitiveUnits(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 2, true)
	// Both units equally affinitive to vertex 5's subgraph.
	for _, p := range []int32{0, 1} {
		sigs.Record(4, p, 1)
		sigs.Record(5, p, 1)
		sigs.Record(6, p, 1)
	}
	units := []UnitState{
		&stubUnit{queue: 8}, // heavily loaded
		&stubUnit{queue: 0},
	}
	got := sch.Assign(mkTasks(5), units)
	if got[0] != 1 {
		t.Errorf("task placed on busy unit %d; Eq. 4 should prefer the idle one", got[0])
	}
}

func TestAffinityOnlyIgnoresLoad(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 2, false)
	if sch.Name() != "affinity-only" {
		t.Fatalf("name = %q", sch.Name())
	}
	// Unit 0: perfect affinity but long queue. Unit 1: idle, weaker
	// affinity (one neighbor only).
	sigs.Record(4, 0, 1)
	sigs.Record(5, 0, 1)
	sigs.Record(6, 0, 1)
	sigs.Record(4, 1, 1)
	units := []UnitState{
		&stubUnit{queue: 9},
		&stubUnit{queue: 0},
	}
	got := sch.Assign(mkTasks(5), units)
	if got[0] != 0 {
		t.Errorf("affinity-only placed on %d, want 0 despite load", got[0])
	}
	// The workload-aware variant flips the decision.
	schWA, sigs2, _, _ := auctionFixture(t, 2, true)
	sigs2.Record(4, 0, 1)
	sigs2.Record(5, 0, 1)
	sigs2.Record(6, 0, 1)
	sigs2.Record(4, 1, 1)
	got2 := schWA.Assign(mkTasks(5), units)
	if got2[0] != 1 {
		t.Errorf("workload-aware placed on %d, want idle unit 1", got2[0])
	}
}

func TestAuctionSegmentsLargeBatches(t *testing.T) {
	t.Parallel()
	sch, sigs, _, _ := auctionFixture(t, 2, true)
	for v := graph.VertexID(0); v < 10; v++ {
		sigs.Record(v, 0, 1)
		sigs.Record(v, 1, 1)
	}
	units := mkUnits(2)
	// 5 tasks through 2 units: 3 segments (2+2+1).
	got := sch.Assign(mkTasks(1, 3, 5, 7, 9), units)
	if len(got) != 5 {
		t.Fatalf("got %d placements", len(got))
	}
	rounds, _, _, _ := sch.Stats()
	if rounds != 3 {
		t.Errorf("segments = %d, want 3", rounds)
	}
	counts := map[int]int{}
	for _, u := range got {
		counts[u]++
	}
	// Workload weighting must spread 5 tasks roughly evenly.
	if counts[0] < 2 || counts[1] < 2 {
		t.Errorf("segmented placement unbalanced: %v", counts)
	}
}

func TestAuctionConfigValidation(t *testing.T) {
	t.Parallel()
	_, sigs, clock, g := auctionFixture(t, 2, true)
	_ = sigs
	scorer, err := affinity.NewScorer(g, signature.NewTable(0), clock, affinity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAuction(nil, AuctionConfig{NumUnits: 2}); err == nil {
		t.Error("nil scorer accepted")
	}
	if _, err := NewAuction(scorer, AuctionConfig{NumUnits: 0}); err == nil {
		t.Error("zero units accepted")
	}
}

func TestAuctionPanicsOnUnitMismatch(t *testing.T) {
	t.Parallel()
	sch, _, _, _ := auctionFixture(t, 3, true)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unit count mismatch")
		}
	}()
	sch.Assign(mkTasks(0), mkUnits(2))
}

func TestColdScoreEscapeArc(t *testing.T) {
	t.Parallel()
	b := graph.NewBuilder(graph.Undirected, 10)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	sigs := signature.NewTable(0)
	clock := &signature.ManualClock{}
	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Strong affinity for unit 0 on vertex 5's neighborhood.
	sigs.Record(4, 0, 1)
	sigs.Record(5, 0, 1)
	sigs.Record(6, 0, 1)

	mk := func(coldScore float64) *Auction {
		sch, err := NewAuction(scorer, AuctionConfig{
			NumUnits: 2, Epsilon: 1e-3, WorkloadAware: true, ColdScore: coldScore,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}

	deepQueue := []UnitState{
		&stubUnit{queue: 20, busy: true}, // affinitive but drowning
		&stubUnit{},                      // idle, cold
	}
	// Without the escape arc: affinity wins regardless of queue depth.
	if got := mk(0).Assign(mkTasks(5), deepQueue); got[0] != 0 {
		t.Errorf("paper-faithful SCH placed on %d, want affinitive 0", got[0])
	}
	// With the arc: the idle unit's cold offer beats a 20-deep queue.
	if got := mk(0.3).Assign(mkTasks(5), deepQueue); got[0] != 1 {
		t.Errorf("ColdScore SCH placed on %d, want idle unit 1", got[0])
	}
	// But a short queue on the affinity unit still wins.
	shortQueue := []UnitState{
		&stubUnit{busy: true},
		&stubUnit{},
	}
	if got := mk(0.3).Assign(mkTasks(5), shortQueue); got[0] != 0 {
		t.Errorf("ColdScore SCH placed on %d, want affinitive 0 at short queue", got[0])
	}
}

func TestSSSPAnchorsBothEndpoints(t *testing.T) {
	t.Parallel()
	b := graph.NewBuilder(graph.Undirected, 20)
	for i := 0; i < 19; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	sigs := signature.NewTable(0)
	clock := &signature.ManualClock{}
	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewAuction(scorer, AuctionConfig{NumUnits: 2, Epsilon: 1e-3, WorkloadAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only the TARGET's neighborhood is cached, on unit 1.
	sigs.Record(14, 1, 1)
	sigs.Record(15, 1, 1)
	sigs.Record(16, 1, 1)
	task := &Task{ID: 1, Query: traverse.Query{
		Op: traverse.OpSSSP, Start: 2, Target: 15, Depth: 6,
	}}
	got := sch.Assign([]*Task{task}, mkUnits(2))
	if got[0] != 1 {
		t.Errorf("SSSP task placed on %d, want 1 (target-side affinity)", got[0])
	}
}
