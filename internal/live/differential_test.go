package live

import (
	"math/rand"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// TestSimAndLiveChargeIdentically is the differential wall between the
// two executors: both drive one sim.Lifecycle and one sim.ChargeCursor
// and build each span from the one sim.Job, so a unit with the same
// buffer budget fed the same queries in the same order must report the
// same span per query — every field but the clock readings and the
// live runtime's own (Degraded, DiskWaitNanos, Err) — and end with the
// same buffer, whether its disk is a virtual-time queue or a semaphore
// and a sleep. One unit and one query in flight at a time take
// scheduling and timing out of the comparison.
func TestSimAndLiveChargeIdentically(t *testing.T) {
	t.Parallel()
	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers: 800, NumProducts: 300,
		PurchasesPerCustomerMean: 8, PopularityExponent: 2.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := bip.Graph
	// Small enough that the working set does not fit: evictions and
	// re-fetches are part of what must agree.
	const memory = 32 << 10

	rng := rand.New(rand.NewSource(15))
	vertex := func() graph.VertexID { return graph.VertexID(rng.Intn(g.NumVertices())) }
	queries := make([]traverse.Query, 80)
	for i := range queries {
		switch i % 4 {
		case 0:
			queries[i] = traverse.Query{Op: traverse.OpBFS, Start: vertex(), Depth: 2, MaxVisits: 120}
		case 1:
			queries[i] = traverse.Query{Op: traverse.OpSSSP, Start: vertex(), Target: vertex(), Depth: 4}
		case 2:
			queries[i] = traverse.Query{Op: traverse.OpCollab, Start: bip.ProductVertex(rng.Intn(300)), SimilarityThreshold: 0.1}
		default:
			queries[i] = traverse.Query{Op: traverse.OpRWR, Start: vertex(), Steps: 150, RestartProb: 0.2, TopK: 5, Seed: uint64(i)}
		}
	}

	// Simulator: arrivals far enough apart that each query finishes
	// before the next is admitted.
	cluster, err := sim.NewCluster(g, sim.Config{NumUnits: 1, MemoryPerUnit: memory})
	if err != nil {
		t.Fatal(err)
	}
	simRing := obs.NewRing(len(queries))
	cluster.SetTrace(simRing)
	tasks := make([]*sched.Task, len(queries))
	for i, q := range queries {
		tasks[i] = &sched.Task{ID: int64(i), Query: q, Arrival: int64(i) * 1e12}
	}
	simRes, err := cluster.Run(sched.NewBaseline(1), tasks)
	if err != nil {
		t.Fatal(err)
	}

	// Live: the same list, one Do at a time.
	cfg := fastLiveConfig(1)
	cfg.MemoryPerUnit = memory
	cfg.TraceBuffer = len(queries)
	r, err := New(g, cfg, sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		resp, err := r.Do(q)
		if err != nil || resp.Err != nil {
			t.Fatalf("live query %d: %v / %v", i, err, resp.Err)
		}
	}
	r.Close()

	spans, want := r.Trace(len(queries)), simRing.Last(len(queries))
	if len(spans) != len(queries) || len(want) != len(queries) {
		t.Fatalf("%d live and %d simulated spans for %d queries", len(spans), len(want), len(queries))
	}
	untimed := func(s obs.Span) obs.Span {
		s.SubmitNanos, s.ScheduleNanos, s.StartNanos, s.EndNanos, s.WaitNanos, s.ExecNanos = 0, 0, 0, 0, 0, 0
		s.Degraded, s.DiskWaitNanos, s.Err = false, 0, ""
		return s
	}
	for i, s := range spans {
		// Both rings fill in query order; live ids count admissions
		// from zero.
		if got, w := untimed(s), untimed(want[i]); got != w {
			t.Errorf("query %d:\nlive %s\nsim  %s", i, got.CSVRow(), w.CSVRow())
		}
	}
	live := r.units[0].buffer.Stats()
	if live.Hits != simRes.CacheHits || live.Misses != simRes.CacheMisses ||
		live.Evictions != simRes.CacheEvictions || live.BytesLoaded != simRes.BytesLoaded {
		t.Errorf("final buffer: live %+v, sim hits=%d misses=%d evictions=%d loaded=%d",
			live, simRes.CacheHits, simRes.CacheMisses, simRes.CacheEvictions, simRes.BytesLoaded)
	}
	if simRes.CacheEvictions == 0 || simRes.CacheHits == 0 {
		t.Errorf("fixture too easy: %d evictions, %d hits", simRes.CacheEvictions, simRes.CacheHits)
	}
}
