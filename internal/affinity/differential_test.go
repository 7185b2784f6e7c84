package affinity

import (
	"reflect"
	"sync"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/signature"
	"subtrav/internal/xrand"
)

// churnUnit is a UnitView whose CompletedSince genuinely depends on
// the queried timestamp, so a wrong t_p (stale latest-visit time)
// changes the decay and therefore the matrix — the differential test
// would catch it.
type churnUnit struct {
	queue int
	mem   int64
	rate  int64 // completions per 100 time units
	now   int64
}

func (c churnUnit) QueueLen() int       { return c.queue }
func (c churnUnit) MemoryBudget() int64 { return c.mem }
func (c churnUnit) CompletedSince(t int64) int {
	if t >= c.now {
		return 0
	}
	return int((c.now - t) * c.rate / 100)
}

// randomFixture builds a seeded random graph, signature table, unit
// set and anchor batch for one differential trial.
type randomFixture struct {
	scorer  *Scorer
	sigs    *signature.Table
	units   []UnitView
	anchors [][]graph.VertexID
}

func makeFixture(t *testing.T, rng *xrand.RNG, p int, cfg Config) randomFixture {
	t.Helper()
	numV := 32 + rng.Intn(96)
	b := graph.NewBuilder(graph.Undirected, numV)
	numE := numV * (1 + rng.Intn(4))
	for e := 0; e < numE; e++ {
		u := graph.VertexID(rng.Intn(numV))
		v := graph.VertexID(rng.Intn(numV))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()

	const now = 1000
	var clock signature.ManualClock
	clock.Set(now)
	sigs := signature.NewTable(1 + rng.Intn(10))
	// Records: random vertices and processors (some beyond P, which
	// every path must ignore), timestamps straddling "now" and
	// deliberately out of order.
	for n := rng.Intn(numV * 8); n > 0; n-- {
		sigs.Record(graph.VertexID(rng.Intn(numV)), int32(rng.Intn(p+2)), int64(rng.Intn(1200)))
	}

	units := make([]UnitView, p)
	for i := range units {
		var mem int64
		if rng.Intn(4) > 0 {
			mem = int64(1+rng.Intn(64)) << 20
		}
		units[i] = churnUnit{
			queue: rng.Intn(9),
			mem:   mem,
			rate:  int64(rng.Intn(50)),
			now:   now,
		}
	}

	batch := 1 + rng.Intn(2*p)
	anchors := make([][]graph.VertexID, batch)
	for i := range anchors {
		anchors[i] = []graph.VertexID{graph.VertexID(rng.Intn(numV))}
		if rng.Intn(3) == 0 {
			anchors[i] = append(anchors[i], graph.VertexID(rng.Intn(numV)))
		}
	}

	s, err := NewScorer(g, sigs, &clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return randomFixture{scorer: s, sigs: sigs, units: units, anchors: anchors}
}

// Differential property: the snapshot-based BuildAnchors produces a
// Matrix identical — bit for bit, including nil-vs-empty rows and
// entry order — to the per-pair reference path, on seeded random
// graphs, tables, unit states and anchor batches.
func TestBuildAnchorsMatchesReference(t *testing.T) {
	rng := xrand.New(0xD1FF)
	etas := []float64{0, 0.01, 0.2}
	unitCounts := []int{1, 3, 4, 16}
	for trial := 0; trial < 40; trial++ {
		p := unitCounts[trial%len(unitCounts)]
		cfg := DefaultConfig()
		cfg.Eta = etas[trial%len(etas)]
		cfg.AvgSubgraphBytes = int64(1+rng.Intn(512)) << 10
		fx := makeFixture(t, rng, p, cfg)

		want := fx.scorer.BuildAnchorsReference(fx.anchors, fx.units)
		got := fx.scorer.BuildAnchors(fx.anchors, fx.units)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (P=%d, eta=%g): snapshot path diverged\n got: %+v\nwant: %+v",
				trial, p, cfg.Eta, got, want)
		}
		// Scratch reuse across rounds must not leak state: a second
		// build over the same inputs is identical.
		again := fx.scorer.BuildAnchors(fx.anchors, fx.units)
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("trial %d: second round diverged after scratch reuse", trial)
		}
	}
}

// The batched path takes one signature lock per distinct vertex in the
// anchor closure — versus ~P locks per vertex per task on the
// reference path. This pins the ≥P× reduction the issue requires.
func TestBuildAnchorsLockBudget(t *testing.T) {
	rng := xrand.New(7)
	const p = 16
	fx := makeFixture(t, rng, p, DefaultConfig())

	base := fx.sigs.LockAcquisitions()
	fx.scorer.BuildAnchors(fx.anchors, fx.units)
	snap := fx.sigs.LockAcquisitions() - base

	base = fx.sigs.LockAcquisitions()
	fx.scorer.BuildAnchorsReference(fx.anchors, fx.units)
	ref := fx.sigs.LockAcquisitions() - base

	if snap == 0 || ref == 0 {
		t.Fatalf("lock counters did not move: snap=%d ref=%d", snap, ref)
	}
	if ref < int64(p)*snap {
		t.Errorf("lock acquisitions: snapshot=%d reference=%d, want ≥%d× reduction", snap, ref, p)
	}
	// Tighter: the snapshot path reads each distinct closure vertex
	// exactly once.
	distinct := make(map[graph.VertexID]struct{})
	for _, vs := range fx.anchors {
		for _, v := range vs {
			distinct[v] = struct{}{}
			for _, u := range fx.scorer.g.Neighbors(v) {
				distinct[u] = struct{}{}
			}
		}
	}
	if snap != int64(len(distinct)) {
		t.Errorf("snapshot path took %d locks, want %d (one per distinct closure vertex)", snap, len(distinct))
	}
}

// Concurrency: traversal engines record visits while the scheduler
// builds matrices. Run under -race; also sanity-check row shape.
func TestBuildAnchorsConcurrentWithRecords(t *testing.T) {
	rng := xrand.New(99)
	const p = 8
	fx := makeFixture(t, rng, p, DefaultConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fx.sigs.Record(graph.VertexID(r.Intn(32)), int32(r.Intn(p)), int64(i))
			}
		}(uint64(w + 1))
	}
	for round := 0; round < 200; round++ {
		m := fx.scorer.BuildAnchors(fx.anchors, fx.units)
		for _, row := range m.Rows {
			for k, e := range row {
				if e.Unit < 0 || e.Unit >= p || e.Benefit <= 0 {
					t.Errorf("bad entry %+v", e)
				}
				if k > 0 && row[k-1].Unit >= e.Unit {
					t.Errorf("row not in ascending unit order: %+v", row)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// mutatingUnit clobbers a caller-owned starts slice from inside the
// scoring round, emulating a caller that reuses its batch buffer
// while (or immediately after) Build runs.
type mutatingUnit struct {
	fakeUnit
	starts []graph.VertexID
}

func (m mutatingUnit) QueueLen() int {
	for i := range m.starts {
		m.starts[i] = 0
	}
	return m.fakeUnit.queue
}

// Contract pin: Build copies the caller's starts slice, so anchor
// identity is fixed at call time. Before the fix, Build aliased
// starts (anchors[i] = starts[i:i+1]) and a mutation during the round
// silently retargeted every task to the clobbered vertex.
func TestBuildCopiesStarts(t *testing.T) {
	g := starGraph(4)
	var clock signature.ManualClock
	s, sigs := newScorer(t, g, &clock, DefaultConfig())
	// Unit 0 visited leaves 1 and 2 only. Tasks anchored there score
	// 1/2 ({leaf} ∪ {center}, leaf visited); a task clobbered onto the
	// center would score 2/5 instead, so aliasing changes the matrix.
	sigs.Record(1, 0, 10)
	sigs.Record(2, 0, 10)

	starts := []graph.VertexID{1, 2}
	units := []UnitView{mutatingUnit{fakeUnit: fakeUnit{memory: 0}, starts: starts}}
	got := s.Build(starts, units)

	pristine := []graph.VertexID{1, 2}
	want := s.Build(pristine, []UnitView{fakeUnit{memory: 0}})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Build saw the mutated starts slice:\n got: %+v\nwant: %+v", got, want)
	}
}
