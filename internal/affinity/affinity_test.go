package affinity

import (
	"math"
	"testing"
	"testing/quick"

	"subtrav/internal/graph"
	"subtrav/internal/signature"
)

// fakeUnit is a canned UnitView.
type fakeUnit struct {
	queue     int
	completed int // returned for any CompletedSince query
	memory    int64
}

func (f fakeUnit) QueueLen() int              { return f.queue }
func (f fakeUnit) CompletedSince(t int64) int { return f.completed }
func (f fakeUnit) MemoryBudget() int64        { return f.memory }

// starGraph builds a star with center 0 and `leaves` leaves.
func starGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder(graph.Undirected, leaves+1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	return b.Build()
}

func newScorer(t *testing.T, g *graph.Graph, clock signature.Clock, cfg Config) (*Scorer, *signature.Table) {
	t.Helper()
	sigs := signature.NewTable(0)
	s, err := NewScorer(g, sigs, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, sigs
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Eta: -1, AvgSubgraphBytes: 1},
		{Eta: 0, AvgSubgraphBytes: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	var clock signature.ManualClock
	if _, err := NewScorer(nil, signature.NewTable(0), &clock, DefaultConfig()); err == nil {
		t.Error("nil graph should be rejected")
	}
}

func TestStructuralEq1(t *testing.T) {
	g := starGraph(4) // center 0, neighbors 1..4 → denominator 5
	var clock signature.ManualClock
	s, sigs := newScorer(t, g, &clock, DefaultConfig())

	if got := s.Structural(0, 7); got != 0 {
		t.Errorf("unvisited: %g, want 0", got)
	}
	// Processor 7 visited the center: δ_{v,p}=1, no neighbors → 1/5.
	sigs.Record(0, 7, 10)
	if got := s.Structural(0, 7); got != 0.2 {
		t.Errorf("center only: %g, want 0.2", got)
	}
	// Plus two neighbors → 3/5.
	sigs.Record(1, 7, 11)
	sigs.Record(2, 7, 12)
	if got := s.Structural(0, 7); got != 0.6 {
		t.Errorf("center+2: %g, want 0.6", got)
	}
	// All visited → 1.0 (perfect affinity).
	sigs.Record(3, 7, 13)
	sigs.Record(4, 7, 14)
	if got := s.Structural(0, 7); got != 1.0 {
		t.Errorf("all: %g, want 1.0", got)
	}
	// Another processor's visits don't count.
	if got := s.Structural(0, 8); got != 0 {
		t.Errorf("other proc: %g, want 0", got)
	}
}

func TestStructuralIsolatedVertex(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 2)
	b.AddEdge(0, 1)
	g := b.Build()
	// Build a 3rd isolated vertex graph.
	b2 := graph.NewBuilder(graph.Undirected, 1)
	iso := b2.Build()
	_ = g
	var clock signature.ManualClock
	s, sigs := newScorer(t, iso, &clock, DefaultConfig())
	sigs.Record(0, 3, 5)
	if got := s.Structural(0, 3); got != 1.0 {
		t.Errorf("isolated visited vertex: %g, want 1 (1/(1+0))", got)
	}
}

func TestDecayUnlimitedMemoryIsOne(t *testing.T) {
	g := starGraph(2)
	var clock signature.ManualClock
	s, sigs := newScorer(t, g, &clock, DefaultConfig())
	sigs.Record(0, 0, 0)
	clock.Set(1_000_000_000_000) // eons later
	unit := fakeUnit{queue: 100, completed: 100, memory: 0}
	if got := s.Score(0, 0, unit); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("unlimited memory score = %g, want structural 1/3 undecayed", got)
	}
}

func TestDecayDropsWithChurn(t *testing.T) {
	g := starGraph(2)
	var clock signature.ManualClock
	cfg := DefaultConfig()
	cfg.AvgSubgraphBytes = 1 << 20
	s, sigs := newScorer(t, g, &clock, cfg)
	sigs.Record(0, 0, 0)

	unit := fakeUnit{queue: 4, completed: 4, memory: 8 << 20} // churn = 8·1MiB/8MiB = 1
	clock.Set(0)
	fresh := s.Score(0, 0, unit) // visit at now: no decay
	clock.Set(1)                 // any later instant: churn applies
	stale := s.Score(0, 0, unit)
	if !(stale < fresh) {
		t.Fatalf("score did not decay: fresh %g, stale %g", fresh, stale)
	}
	want := fresh * math.Exp(-1)
	if math.Abs(stale-want) > 1e-9 {
		t.Errorf("decayed score = %g, want %g (e^-1 of fresh)", stale, want)
	}
	// More churn decays faster.
	busier := fakeUnit{queue: 8, completed: 8, memory: 8 << 20}
	if b := s.Score(0, 0, busier); !(b < stale) {
		t.Errorf("busier unit should decay more: %g vs %g", b, stale)
	}
}

func TestDecayIdleUnitHoldsCache(t *testing.T) {
	g := starGraph(2)
	var clock signature.ManualClock
	s, sigs := newScorer(t, g, &clock, DefaultConfig())
	sigs.Record(0, 0, 0)
	clock.Set(1_000_000_000) // long after the visit
	idle := fakeUnit{queue: 0, completed: 0, memory: 8 << 20}
	if got := s.Score(0, 0, idle); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("idle unit score = %g, want undecayed 1/3 (nothing churned)", got)
	}
}

func TestBuildAppliesEta(t *testing.T) {
	g := starGraph(4)
	var clock signature.ManualClock
	cfg := DefaultConfig()
	cfg.Eta = 0.5 // drop weak affinities
	s, sigs := newScorer(t, g, &clock, cfg)

	// Unit 0 visited everything (score 1); unit 1 visited one leaf
	// (score 1/5 < η); unit 2 nothing.
	for v := graph.VertexID(0); v <= 4; v++ {
		sigs.Record(v, 0, 1)
	}
	sigs.Record(1, 1, 1)
	units := []UnitView{
		fakeUnit{queue: 0, memory: 0},
		fakeUnit{queue: 0, memory: 0},
		fakeUnit{queue: 0, memory: 0},
	}
	m := s.BuildAnchors([][]graph.VertexID{{0}}, units)
	if m.NumUnits != 3 || len(m.Rows) != 1 {
		t.Fatalf("matrix shape %dx%d", len(m.Rows), m.NumUnits)
	}
	row := m.Rows[0]
	if len(row) != 1 || row[0].Unit != 0 {
		t.Fatalf("row = %v, want only unit 0 above η", row)
	}
}

func TestBuildMultipleTasks(t *testing.T) {
	g := starGraph(3)
	var clock signature.ManualClock
	s, sigs := newScorer(t, g, &clock, DefaultConfig())
	sigs.Record(1, 0, 1) // unit 0 visited vertex 1
	sigs.Record(2, 1, 1) // unit 1 visited vertex 2
	units := []UnitView{fakeUnit{memory: 0}, fakeUnit{memory: 0}}
	m := s.BuildAnchors([][]graph.VertexID{{1}, {2}, {3}}, units)
	if len(m.Rows[0]) == 0 || m.Rows[0][0].Unit != 0 {
		t.Errorf("task at vertex 1 should be affinitive to unit 0: %v", m.Rows[0])
	}
	if len(m.Rows[1]) == 0 || m.Rows[1][0].Unit != 1 {
		t.Errorf("task at vertex 2 should be affinitive to unit 1: %v", m.Rows[1])
	}
	// Vertex 3 is a leaf: neighbors = {0}; neither 3 nor 0 visited by
	// anyone → empty row.
	if len(m.Rows[2]) != 0 {
		t.Errorf("task at vertex 3 should have no affinities: %v", m.Rows[2])
	}
}

func TestScoreUsesFreshestVisit(t *testing.T) {
	g := starGraph(2)
	var clock signature.ManualClock
	cfg := DefaultConfig()
	s, sigs := newScorer(t, g, &clock, cfg)
	unit := fakeUnit{queue: 4, completed: 4, memory: 4 << 20}

	// Old visit on v, fresh visit on a neighbor: t_p should be the
	// fresh one, yielding milder decay than the old timestamp alone.
	sigs.Record(0, 0, 0)
	clock.Set(500_000_000)
	oldOnly := s.Score(0, 0, unit)
	sigs.Record(1, 0, clock.Now())
	withFresh := s.Score(0, 0, unit)
	// Structural doubled (2 hits vs 1) AND decay improved; must rise.
	if !(withFresh > oldOnly*2) {
		t.Errorf("fresh neighbor visit should refresh decay: %g -> %g", oldOnly, withFresh)
	}
}

// Property: scores are always within [0, 1] (Eq. 1 is a fraction and
// the decay coefficient is in (0, 1]).
func TestScoreBoundsQuick(t *testing.T) {
	g := starGraph(6)
	var clock signature.ManualClock
	cfg := DefaultConfig()
	s, sigs := newScorer(t, g, &clock, cfg)

	f := func(visitsRaw []uint8, queueRaw, completedRaw uint8, memRaw uint16) bool {
		sigs.Reset()
		clock.Set(clock.Now() + 1000)
		for i, raw := range visitsRaw {
			if i > 40 {
				break
			}
			v := graph.VertexID(int(raw) % 7)
			proc := int32(raw) % 4
			sigs.Record(v, proc, clock.Now()-int64(i))
		}
		unit := fakeUnit{
			queue:     int(queueRaw) % 16,
			completed: int(completedRaw) % 64,
			memory:    int64(memRaw)*1024 + 1,
		}
		for proc := int32(0); proc < 4; proc++ {
			score := s.Score(0, proc, unit)
			if score < 0 || score > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: BuildAnchors never emits entries at or below η, and each
// entry carries the unweighted ScoreAnchors of its unit, bit for bit,
// whatever the unit's queue.
func TestBuildConsistencyQuick(t *testing.T) {
	g := starGraph(5)
	var clock signature.ManualClock
	cfg := DefaultConfig()
	cfg.Eta = 0.05
	s, sigs := newScorer(t, g, &clock, cfg)
	f := func(visitsRaw []uint8) bool {
		sigs.Reset()
		clock.Set(clock.Now() + 10)
		for i, raw := range visitsRaw {
			if i > 30 {
				break
			}
			sigs.Record(graph.VertexID(int(raw)%6), int32(raw)%3, clock.Now())
		}
		units := []UnitView{
			fakeUnit{queue: 0, memory: 0},
			fakeUnit{queue: 2, memory: 0},
			fakeUnit{queue: 7, memory: 0},
		}
		anchors := [][]graph.VertexID{{0}, {3}}
		m := s.BuildAnchors(anchors, units)
		for i, row := range m.Rows {
			for _, e := range row {
				want := s.ScoreAnchors(anchors[i], int32(e.Unit), units[e.Unit])
				if want <= cfg.Eta || e.Benefit != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
