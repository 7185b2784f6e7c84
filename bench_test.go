// Benchmarks regenerating the paper's evaluation, one per figure, plus
// microbenchmarks of the core machinery. Figure benches run the
// corresponding experiment on the Quick configuration (tiny graph,
// units 1-4) so `go test -bench=.` stays tractable; the full paper
// sweep is `cmd/subtrav-bench <figN>` with the default configuration.
//
// Custom metrics: figure benches report q/s (simulated throughput of
// the SCH scheduler at the largest swept unit count) and x-over-base
// (SCH/baseline throughput ratio) so regressions in the *result* — not
// just the runtime — are visible.
package subtrav_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"subtrav"
	"subtrav/internal/affinity"
	"subtrav/internal/auction"
	"subtrav/internal/cache"
	"subtrav/internal/experiments"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/partition"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
	"subtrav/internal/workload"
	"subtrav/internal/xrand"
)

// cellFloat parses a table cell like "123.4", "1.5x" or "80%".
func cellFloat(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// --- Figure 8: throughput vs processing units, baseline vs SCH ---

func benchmarkFig8(b *testing.B, tableIdx int) {
	cfg := experiments.Quick()
	var lastSch, lastBase float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t := tables[tableIdx]
		last := t.Rows[len(t.Rows)-1]
		lastBase = cellFloat(b, last[1])
		lastSch = cellFloat(b, last[2])
	}
	b.ReportMetric(lastSch, "q/s")
	b.ReportMetric(lastSch/lastBase, "x-over-base")
}

func BenchmarkFig8BFS(b *testing.B)         { benchmarkFig8(b, 0) }
func BenchmarkFig8SSSP(b *testing.B)        { benchmarkFig8(b, 1) }
func BenchmarkFig8ImageSearch(b *testing.B) { benchmarkFig8(b, 2) }

// --- Figure 9: memory-capacity sensitivity ---

func BenchmarkFig9MemorySensitivity(b *testing.B) {
	cfg := experiments.Quick()
	var schAtUnlimited float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bfs := tables[0]
		schAtUnlimited = cellFloat(b, bfs.Rows[len(bfs.Rows)-1][2])
	}
	b.ReportMetric(schAtUnlimited, "q/s")
}

// --- Figure 10: speedup over a single unit ---

func BenchmarkFig10Speedup(b *testing.B) {
	cfg := experiments.Quick()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = cellFloat(b, t.Rows[len(t.Rows)-1][2])
	}
	b.ReportMetric(speedup, "speedup-at-max-units")
}

// --- Figure 11: topology impact ---

func BenchmarkFig11Topology(b *testing.B) {
	cfg := experiments.Quick()
	var powerlaw, random float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		powerlaw = cellFloat(b, t.Rows[0][2])
		random = cellFloat(b, t.Rows[1][2])
	}
	b.ReportMetric(powerlaw, "powerlaw-q/s")
	b.ReportMetric(random, "random-q/s")
}

// --- Figure 12: improvement summary ---

func BenchmarkFig12Improvement(b *testing.B) {
	cfg := experiments.Quick()
	var meanBFS float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanBFS = cellFloat(b, t.Rows[0][2])
	}
	b.ReportMetric(meanBFS, "bfs-mean-improvement-%")
}

// --- Ablations ---

func BenchmarkAblationPolicies(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Auction microbenchmarks (the paper's Section V machinery) ---

func randomProblem(n, m int, seed uint64) auction.Problem {
	rng := xrand.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	return auction.Dense(rows)
}

func BenchmarkAuctionSequential64(b *testing.B) {
	p := randomProblem(64, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auction.Solve(p, auction.Options{Epsilon: 1e-3})
	}
}

func BenchmarkAuctionSequential256(b *testing.B) {
	p := randomProblem(256, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auction.Solve(p, auction.Options{Epsilon: 1e-3})
	}
}

func BenchmarkAuctionParallel256(b *testing.B) {
	p := randomProblem(256, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auction.SolveParallel(p, auction.Options{Epsilon: 1e-3, Workers: 4})
	}
}

// BenchmarkAuctionIncremental measures warm-started rounds over a
// drifting problem stream — the paper's incremental mode.
func BenchmarkAuctionIncremental(b *testing.B) {
	const n = 64
	rng := xrand.New(3)
	auc, err := auction.NewAuctioneer(auction.AuctioneerConfig{
		NumCols: n, Options: auction.Options{Epsilon: 1e-3},
	})
	if err != nil {
		b.Fatal(err)
	}
	base := randomProblem(n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := auction.Problem{NumCols: n, Rows: make([][]auction.Arc, n)}
		for r := range p.Rows {
			arcs := make([]auction.Arc, n)
			for j := range arcs {
				arcs[j] = auction.Arc{Col: j, Benefit: base.Rows[r][j].Benefit + 0.01*rng.Float64()}
			}
			p.Rows[r] = arcs
		}
		if _, err := auc.Assign(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHungarianExact64(b *testing.B) {
	rng := xrand.New(5)
	m := make([][]float64, 64)
	for i := range m {
		m[i] = make([]float64, 64)
		for j := range m[i] {
			m[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auction.SolveExact(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Signature lookups (the affinity build, the scheduling round and
// Record are cells of internal/schedbench) ---

func affinityFixture(b *testing.B) (*affinity.Scorer, *signature.Table, *graph.Graph) {
	b.Helper()
	g, err := subtrav.TwitterLike(subtrav.ScaleTiny, 1)
	if err != nil {
		b.Fatal(err)
	}
	sigs := signature.NewTable(0)
	clock := &signature.ManualClock{}
	clock.Set(1)
	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	for i := 0; i < 20000; i++ {
		sigs.Record(graph.VertexID(rng.Intn(g.NumVertices())), int32(rng.Intn(16)), int64(i))
	}
	return scorer, sigs, g
}

func BenchmarkSignatureLookup(b *testing.B) {
	_, sigs, _ := affinityFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs.LatestByProc(graph.VertexID(i%2000), int32(i%16))
	}
}

// --- Traversal engines (BFS, SSSP and CollabFilter are cells of
// internal/travbench; this is the image-corpus walk no suite has) ---

func BenchmarkRWR400(b *testing.B) {
	corpus, err := subtrav.SmallImageCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := corpus.Queries[i%len(corpus.Queries)]
		traverse.RandomWalk(corpus.Graph, traverse.Query{
			Op: traverse.OpRWR, Start: q.Entry, Steps: 400, RestartProb: 0.2, TopK: 10, Seed: uint64(i),
		})
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(1 << 20)
	for i := 0; i < b.N; i++ {
		c.Access(cache.VertexKey(int32(i%8192)), 256)
	}
}

func BenchmarkDiskRead(b *testing.B) {
	d := storage.NewDisk(storage.DefaultDiskConfig())
	for i := 0; i < b.N; i++ {
		d.Read(int64(i)*1000, 4096)
	}
}

// BenchmarkSimulatorEvents measures raw DES throughput: one full BFS
// workload run per iteration, reporting simulated tasks per wall
// second.
func BenchmarkSimulatorEvents(b *testing.B) {
	g, err := subtrav.TwitterLike(subtrav.ScaleTiny, 1)
	if err != nil {
		b.Fatal(err)
	}
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 300, Seed: 2, Locality: workload.DefaultLocality(),
	}, 2, 100)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := subtrav.NewSystem(g, subtrav.Options{Units: 4, MemoryPerUnit: 512 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(subtrav.PolicyAuction, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

type benchSchedUnit struct{}

func (benchSchedUnit) QueueLen() int              { return 1 }
func (benchSchedUnit) Busy() bool                 { return true }
func (benchSchedUnit) CompletedSince(t int64) int { return 2 }
func (benchSchedUnit) MemoryBudget() int64        { return 1 << 20 }

// --- Additional machinery benchmarks ---

func BenchmarkHierarchicalRound(b *testing.B) {
	scorer, _, g := affinityFixture(b)
	h, err := sched.NewHierarchical(scorer, sched.HierarchicalConfig{NumUnits: 16, NumGroups: 4, Epsilon: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	units := make([]sched.UnitState, 16)
	for i := range units {
		units[i] = benchSchedUnit{}
	}
	rng := xrand.New(11)
	tasks := make([]*sched.Task, 16)
	for i := range tasks {
		tasks[i] = &sched.Task{ID: int64(i), Query: traverse.Query{
			Op: traverse.OpBFS, Start: graph.VertexID(rng.Intn(g.NumVertices())), Depth: 2,
		}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Assign(tasks, units)
	}
}

func BenchmarkAdaptiveEpsilon(b *testing.B) {
	const n = 48
	a, err := auction.NewAdaptiveAuctioneer(auction.AdaptiveConfig{NumCols: n})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(13)
	base := randomProblem(n, n, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := auction.Problem{NumCols: n, Rows: make([][]auction.Arc, n)}
		for r := range p.Rows {
			arcs := make([]auction.Arc, n)
			for j := range arcs {
				arcs[j] = auction.Arc{Col: j, Benefit: base.Rows[r][j].Benefit + 0.01*rng.Float64()}
			}
			p.Rows[r] = arcs
		}
		if _, err := a.Assign(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionCompute(b *testing.B) {
	g, err := subtrav.TwitterLike(subtrav.ScaleTiny, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Compute(g, partition.Config{NumPartitions: 8, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGenPowerLaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := subtrav.TwitterLike(subtrav.ScaleTiny, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphIORoundTrip(b *testing.B) {
	g, err := subtrav.TwitterLike(subtrav.ScaleTiny, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := graphio.Write(&buf, g); err != nil {
			b.Fatal(err)
		}
		if _, err := graphio.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
