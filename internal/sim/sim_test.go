package sim

import (
	"math"
	"reflect"
	"testing"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
	"subtrav/internal/workload"
)

// fastCost keeps unit tests quick: cheap disk, array-level channel
// parallelism (so unit scaling is limited by redundancy and queueing,
// not by an artificially narrow disk).
func fastCost() CostModel {
	c := DefaultCostModel()
	c.Disk.SeekNanos = 100_000 // 0.1 ms
	c.Disk.Channels = 8
	return c
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 12000, Exponent: 2.2,
		Kind: graph.Undirected, Seed: 1, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newCluster(t *testing.T, g *graph.Graph, units int, memory int64) *Cluster {
	t.Helper()
	c, err := NewCluster(g, Config{NumUnits: units, MemoryPerUnit: memory, Cost: fastCost()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// auctionFor wires the paper's scheduler to a cluster.
func auctionFor(t *testing.T, c *Cluster) *sched.Auction {
	t.Helper()
	scorer, err := affinity.NewScorer(c.Graph(), c.Signatures(), c.Clock(), affinity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewAuction(scorer, sched.AuctionConfig{
		NumUnits: c.NumUnits(), Epsilon: 1e-3, WorkloadAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func bfsTasks(t *testing.T, g *graph.Graph, n int, seed uint64) []*sched.Task {
	t.Helper()
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: n, Seed: seed, Locality: workload.DefaultLocality(),
	}, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func TestRunCompletesAllTasks(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 4, 1<<20)
	res, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, 200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Fatalf("completed %d of 200", res.Completed)
	}
	if res.Makespan <= 0 || res.ThroughputPerSec <= 0 {
		t.Errorf("makespan %v throughput %g", res.Makespan, res.ThroughputPerSec)
	}
	if res.Latency.Count != 200 {
		t.Errorf("latency samples = %d", res.Latency.Count)
	}
	if res.CacheHits+res.CacheMisses == 0 {
		t.Error("no cache activity recorded")
	}
	if res.Disk.Requests == 0 {
		t.Error("no disk activity recorded")
	}
	var perUnit int64
	for _, n := range res.TasksPerUnit {
		perUnit += n
	}
	if perUnit != 200 {
		t.Errorf("per-unit tasks sum to %d", perUnit)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t)
	run := func() Result {
		c := newCluster(t, g, 4, 1<<20)
		res, err := c.Run(auctionFor(t, c), bfsTasks(t, g, 150, 3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.CacheHits != b.CacheHits || a.Disk.Requests != b.Disk.Requests {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSingleUnit(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 1, 1<<20)
	res, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, 50, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 50 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.Imbalance != 1 {
		t.Errorf("single unit imbalance = %g", res.Imbalance)
	}
}

func TestMoreUnitsMoreThroughput(t *testing.T) {
	g := testGraph(t)
	// Per-unit memory well below the working set, as in the paper's
	// partitioned-memory platform: adding units adds both compute and
	// aggregate buffer space.
	tp := func(units int) float64 {
		c := newCluster(t, g, units, 256<<10)
		res, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, 300, 5))
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputPerSec
	}
	t1, t8 := tp(1), tp(8)
	if t8 <= 1.5*t1 {
		t.Errorf("8 units (%.1f/s) should clearly beat 1 unit (%.1f/s)", t8, t1)
	}
}

func TestMoreMemoryNeverHurts(t *testing.T) {
	g := testGraph(t)
	tp := func(memory int64) float64 {
		c := newCluster(t, g, 4, memory)
		res, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, 300, 6))
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputPerSec
	}
	small, unlimited := tp(64<<10), tp(0)
	if unlimited <= small {
		t.Errorf("unlimited memory (%.1f/s) should beat 64KiB (%.1f/s)", unlimited, small)
	}
}

// The headline effect: on a locality-clustered workload with limited
// memory, the auction scheduler must beat the random baseline.
func TestAuctionBeatsBaseline(t *testing.T) {
	g := testGraph(t)
	tasks := bfsTasks(t, g, 600, 7)

	cb := newCluster(t, g, 8, 512<<10)
	baseRes, err := cb.Run(sched.NewBaseline(1), tasks)
	if err != nil {
		t.Fatal(err)
	}
	ca := newCluster(t, g, 8, 512<<10)
	aucRes, err := ca.Run(auctionFor(t, ca), tasks)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: %v", baseRes)
	t.Logf("auction:  %v", aucRes)
	if aucRes.ThroughputPerSec <= baseRes.ThroughputPerSec {
		t.Errorf("auction throughput %.1f/s did not beat baseline %.1f/s",
			aucRes.ThroughputPerSec, baseRes.ThroughputPerSec)
	}
	if aucRes.HitRate <= baseRes.HitRate {
		t.Errorf("auction hit rate %.3f did not beat baseline %.3f",
			aucRes.HitRate, baseRes.HitRate)
	}
}

// Balance: the auction scheduler must not starve units — imbalance
// should stay moderate even with affinity pulling queries together.
func TestAuctionKeepsBalance(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 8, 512<<10)
	res, err := c.Run(auctionFor(t, c), bfsTasks(t, g, 800, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance > 2.0 {
		t.Errorf("imbalance %.2f too high; Eq. 4 weighting should spread load", res.Imbalance)
	}
}

func TestOnCompleteDeliversResults(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 2, 0)
	var got int
	c.OnComplete = func(task *sched.Task, r traverse.Result) {
		if r.Visited <= 0 {
			t.Errorf("task %d visited %d", task.ID, r.Visited)
		}
		got++
	}
	if _, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, 40, 9)); err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Errorf("OnComplete fired %d times, want 40", got)
	}
}

func TestPoissonArrivals(t *testing.T) {
	g := testGraph(t)
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 100, Seed: 10, Arrival: workload.Poisson, RatePerSec: 5000,
		Locality: workload.DefaultLocality(),
	}, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, g, 4, 1<<20)
	res, err := c.Run(sched.NewBaseline(2), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestResetAllowsRerun(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 4, 1<<20)
	tasks := bfsTasks(t, g, 100, 11)
	first, err := c.Run(sched.NewBaseline(3), tasks)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	second, err := c.Run(sched.NewBaseline(3), tasks)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh baseline RNG isn't reset, so runs may differ slightly;
	// but counts and a clean state must hold.
	if second.Completed != first.Completed {
		t.Errorf("rerun completed %d vs %d", second.Completed, first.Completed)
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := NewCluster(nil, Config{NumUnits: 1}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewCluster(g, Config{NumUnits: 0}); err == nil {
		t.Error("zero units accepted")
	}
	if _, err := NewCluster(g, Config{NumUnits: 1, MaxQueuePerUnit: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	c := newCluster(t, g, 1, 0)
	if _, err := c.Run(nil, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	bad := []*sched.Task{{ID: 0, Query: traverse.Query{Op: traverse.OpBFS, Start: -1}}}
	if _, err := c.Run(sched.NewBaseline(1), bad); err == nil {
		t.Error("invalid query accepted")
	}
	late := []*sched.Task{{ID: 0, Query: traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1}, Arrival: -5}}
	if _, err := c.Run(sched.NewBaseline(1), late); err == nil {
		t.Error("negative arrival accepted")
	}
}

func TestEmptyRun(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 2, 0)
	res, err := c.Run(sched.NewBaseline(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Makespan != 0 {
		t.Errorf("empty run: %+v", res)
	}
}

func TestMixedWorkloadOps(t *testing.T) {
	g := testGraph(t)
	var tasks []*sched.Task
	bfs := bfsTasks(t, g, 30, 12)
	sssp, err := workload.SSSP(g, workload.StreamConfig{NumQueries: 30, Seed: 13, Locality: workload.DefaultLocality()}, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	tasks = append(tasks, bfs...)
	tasks = append(tasks, sssp...)
	for i, task := range tasks {
		task.ID = int64(i)
	}
	c := newCluster(t, g, 4, 1<<20)
	res, err := c.Run(auctionFor(t, c), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60", res.Completed)
	}
}

func TestSpeedFactorsValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := NewCluster(g, Config{NumUnits: 2, SpeedFactors: []float64{1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewCluster(g, Config{NumUnits: 2, SpeedFactors: []float64{1, 0}}); err == nil {
		t.Error("zero speed factor accepted")
	}
	if _, err := NewCluster(g, Config{NumUnits: 2, SpeedFactors: []float64{1, 2}}); err != nil {
		t.Errorf("valid factors rejected: %v", err)
	}
}

func TestSlowUnitsSlowDownRuns(t *testing.T) {
	g := testGraph(t)
	run := func(speeds []float64) float64 {
		c, err := NewCluster(g, Config{
			NumUnits: 4, MemoryPerUnit: 0, Cost: fastCost(), SpeedFactors: speeds,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(sched.NewRoundRobin(), bfsTasks(t, g, 200, 21))
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputPerSec
	}
	nominal := run(nil)
	degraded := run([]float64{8, 1, 1, 1})
	if degraded >= nominal {
		t.Errorf("degraded cluster (%.1f q/s) should be slower than nominal (%.1f q/s)", degraded, nominal)
	}
}

func TestQueueAwareRoutesAroundSlowUnit(t *testing.T) {
	g := testGraph(t)
	slowShare := func(s sched.Scheduler) float64 {
		c, err := NewCluster(g, Config{
			NumUnits: 4, MemoryPerUnit: 0, Cost: fastCost(),
			SpeedFactors: []float64{8, 1, 1, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(s, bfsTasks(t, g, 400, 22))
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range res.TasksPerUnit {
			total += n
		}
		return float64(res.TasksPerUnit[0]) / float64(total)
	}
	rr := slowShare(sched.NewRoundRobin())
	ll := slowShare(sched.NewLeastLoaded())
	if ll >= rr {
		t.Errorf("least-loaded gave the slow unit %.2f of work, round-robin %.2f; want less", ll, rr)
	}
	if ll > 0.15 {
		t.Errorf("least-loaded slow-unit share %.2f, want well below fair 0.25", ll)
	}
}

// TestTraceSpans pins the simulator's half of "one span from both
// executors": every completed task leaves one obs.Span whose identity,
// virtual timestamps and durations mean what a live span's mean, and
// whose counts are the charge cursor's.
func TestTraceSpans(t *testing.T) {
	g := testGraph(t)
	// run drives tasks with a ring installed and checks what must hold
	// of every span under any configuration.
	run := func(t *testing.T, cfg Config, s func(*Cluster) sched.Scheduler, tasks []*sched.Task) ([]obs.Span, Result) {
		t.Helper()
		cfg.Cost = fastCost()
		c, err := NewCluster(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ring := obs.NewRing(len(tasks))
		c.SetTrace(ring)
		res, err := c.Run(s(c), tasks)
		if err != nil {
			t.Fatal(err)
		}
		spans := ring.Last(len(tasks))
		if len(spans) != len(tasks) {
			t.Fatalf("%d spans for %d tasks", len(spans), len(tasks))
		}
		byID := make(map[int64]*sched.Task, len(tasks))
		for _, task := range tasks {
			byID[task.ID] = task
		}
		for _, sp := range spans {
			task := byID[sp.QueryID]
			if task == nil {
				t.Fatalf("span for unknown or repeated task %d", sp.QueryID)
			}
			delete(byID, sp.QueryID)
			if sp.SubmitNanos != task.Arrival || sp.ScheduleNanos < sp.SubmitNanos ||
				sp.StartNanos < sp.ScheduleNanos || sp.EndNanos < sp.StartNanos {
				t.Errorf("task %d (arrival %d): timestamps %d ≤ %d ≤ %d ≤ %d violated",
					task.ID, task.Arrival, sp.SubmitNanos, sp.ScheduleNanos, sp.StartNanos, sp.EndNanos)
			}
			if sp.WaitNanos != sp.StartNanos-sp.SubmitNanos || sp.ExecNanos != sp.EndNanos-sp.StartNanos {
				t.Errorf("task %d: wait %d / exec %d are not the timestamp differences", task.ID, sp.WaitNanos, sp.ExecNanos)
			}
			if sp.Op != task.Query.Op.String() || sp.Start != int32(task.Query.Start) ||
				sp.Outcome != obs.OutcomeCompleted || sp.Unit < 0 || int(sp.Unit) >= cfg.NumUnits {
				t.Errorf("task %d: identity %+v", task.ID, sp)
			}
		}
		return spans, res
	}
	baseline := func(*Cluster) sched.Scheduler { return sched.NewBaseline(1) }
	// executions groups spans by the execution that produced them: the
	// members of a batch start together on one unit and each carries
	// the batch's joint counts, so an execution's counts are any one
	// member's.
	type execution struct {
		unit  int32
		start int64
	}
	executions := func(spans []obs.Span) map[execution][]obs.Span {
		out := map[execution][]obs.Span{}
		for _, sp := range spans {
			k := execution{sp.Unit, sp.StartNanos}
			out[k] = append(out[k], sp)
		}
		return out
	}
	checkSums := func(t *testing.T, spans []obs.Span, res Result) {
		t.Helper()
		var hits, misses, bytes int64
		for _, members := range executions(spans) {
			hits += int64(members[0].CacheHits)
			misses += int64(members[0].CacheMisses)
			bytes += members[0].BytesRead
		}
		if hits != res.CacheHits || misses != res.CacheMisses || bytes != res.BytesLoaded {
			t.Errorf("spans sum to %d hits / %d misses / %d bytes, Result has %d / %d / %d",
				hits, misses, bytes, res.CacheHits, res.CacheMisses, res.BytesLoaded)
		}
	}

	t.Run("solo", func(t *testing.T) {
		spans, res := run(t, Config{NumUnits: 2, MemoryPerUnit: 1 << 20}, baseline, bfsTasks(t, g, 25, 31))
		checkSums(t, spans, res)
		if res.CacheMisses == 0 {
			t.Error("no misses on a cold cluster")
		}
	})
	// Every task arrives at once and a unit takes one at a time, so all
	// but the first round wait in the pending pool: the span shows that
	// wait as the gap between submit and schedule.
	t.Run("saturated", func(t *testing.T) {
		spans, _ := run(t, Config{NumUnits: 2, MemoryPerUnit: 1 << 20, MaxQueuePerUnit: 1}, baseline, bfsTasks(t, g, 25, 31))
		pooled := 0
		for _, sp := range spans {
			if sp.ScheduleNanos > sp.SubmitNanos {
				pooled++
			}
		}
		if pooled < len(spans)-2 {
			t.Errorf("%d of %d spans show a pending-pool wait, want all but the first round", pooled, len(spans))
		}
	})
	t.Run("batch", func(t *testing.T) {
		cfg := Config{NumUnits: 2, MemoryPerUnit: 1 << 20, MaxQueuePerUnit: 8, BatchTraversals: 4}
		spans, res := run(t, cfg, baseline, hubTasks(g, 24))
		checkSums(t, spans, res)
		widest := 0
		for _, members := range executions(spans) {
			widest = max(widest, len(members))
			for _, sp := range members[1:] {
				if f := members[0]; sp.CacheHits != f.CacheHits || sp.CacheMisses != f.CacheMisses ||
					sp.BytesRead != f.BytesRead || sp.EndNanos != f.EndNanos {
					t.Errorf("tasks %d and %d ran as one batch but report different counts", f.QueryID, sp.QueryID)
				}
			}
		}
		if widest < 2 {
			t.Error("fixture formed no batch")
		}
	})
	// Under the paper's scheduler a span also says how the task was
	// placed, and asking for that must not move a placement.
	t.Run("auction", func(t *testing.T) {
		auction := func(c *Cluster) sched.Scheduler { return auctionFor(t, c) }
		cfg := Config{NumUnits: 4, MemoryPerUnit: 1 << 20}
		tasks := bfsTasks(t, g, 150, 3)
		spans, traced := run(t, cfg, auction, tasks)
		var affine, preferred, emptyRow int
		for _, sp := range spans {
			if sp.Affinity > 0 && sp.AuctionRounds > 0 {
				affine++
			}
			if sp.Preferred {
				preferred++
			}
			if sp.EmptyRow {
				emptyRow++
			}
		}
		if affine == 0 || preferred == 0 || emptyRow == 0 {
			t.Errorf("placement detail missing: %d affine, %d preferred, %d empty-row of %d", affine, preferred, emptyRow, len(spans))
		}
		c := newCluster(t, g, cfg.NumUnits, cfg.MemoryPerUnit)
		untraced, err := c.Run(auctionFor(t, c), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced, untraced) {
			t.Errorf("installing the ring moved the run:\n   traced %+v\n untraced %+v", traced, untraced)
		}
	})
}

// byID places task i on unit i mod P, whatever the units' state.
type byID struct{}

func (byID) Name() string { return "by-id" }

func (byID) Assign(tasks []*sched.Task, units []sched.UnitState) []int {
	out := make([]int, len(tasks))
	for i, t := range tasks {
		out[i] = int(t.ID) % len(units)
	}
	return out
}

// TestCompletionSignsAfterEarlierMisses pins the flush in complete: the
// misses logged before a completion are written to L(v) before the
// completion signs its trace, as a Record per miss would have written
// them. Costs are zero, so every event of the run happens at virtual
// instant 0 and only the order of the writes tells them apart. On the
// path 0–1–…–7, task 0 (BFS to depth 7) runs on unit 0 and task 1 (BFS
// to depth 1) on unit 1; their misses alternate, 0 then 1, so unit 0
// has missed vertex 1 before unit 1 completes and signs it. Each of
// vertices 0 and 1 must then list unit 0's miss, unit 1's miss, unit
// 1's completion and, last, unit 0's completion.
func TestCompletionSignsAfterEarlierMisses(t *testing.T) {
	b := graph.NewBuilder(graph.Undirected, 8)
	for v := graph.VertexID(0); v < 7; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	zero := CostModel{Disk: storage.DiskConfig{BytesPerSecond: math.MaxInt64, Channels: 2}}
	c, err := NewCluster(g, Config{NumUnits: 2, Cost: zero})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(byID{}, []*sched.Task{
		{ID: 0, Query: traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 7}},
		{ID: 1, Query: traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Makespan != 0 || !reflect.DeepEqual(res.TasksPerUnit, []int64{1, 1}) {
		t.Fatalf("run: %d completed in %v, per unit %v; want 2 at instant 0, one per unit",
			res.Completed, res.Makespan, res.TasksPerUnit)
	}
	want := []signature.Entry{{Proc: 0}, {Proc: 1}, {Proc: 1}, {Proc: 0}}
	for _, v := range []graph.VertexID{0, 1} {
		if got := c.Signatures().Visitors(v); !reflect.DeepEqual(got, want) {
			t.Errorf("L(%d) = %v, want %v", v, got, want)
		}
	}
}
