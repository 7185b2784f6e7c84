// Package sharebench measures the cross-query sharing layer — lockstep
// multi-source batching (traverse.Batch) — under Zipfian
// high-concurrency workloads, and emits the tracked BENCH_share.json
// artifact (see report.go).
//
// The suite is built on the deterministic virtual-time simulator, so
// every number in the report is a pure function of the scenario
// constants: queries/sec is virtual throughput, disk reads/query
// counts actual shared-disk requests, and regenerating the report
// anywhere produces byte-identical output (the CI drift gate relies on
// this). Each scenario runs the same task stream with batching off and
// on and asserts that every query's semantic result is identical in
// both before reporting the disk-traffic ratio.
package sharebench

import (
	"fmt"
	"reflect"
	"sort"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/loadgen"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// Seed pins the graph, the load plan, and the scheduler.
const Seed = 0x5A4EB011

// BatchK is the lockstep batch width of the batch mode: the full
// traverse.MaxBatch, since wave sharing scales with how many
// overlapping frontiers advance together.
const BatchK = 32

// Scenario is one reproducible workload cell.
type Scenario struct {
	// Name keys the scenario in the report and in CheckThresholds.
	Name string
	// Units is the processing-unit count; with QueueDepth it sets the
	// concurrency level (every unit holds a deep queue of overlapping
	// queries).
	Units int
	// Queries is the exact task count replayed in every mode.
	Queries int
	// NumKeys and ZipfS shape the start-vertex distribution: keys are
	// mapped to degree-ranked hub vertices, so a Zipf-hot key stream
	// is a stream of overlapping frontiers.
	NumKeys int32
	ZipfS   float64
	// QPS is the virtual arrival rate of the open-loop plan.
	QPS float64
	// MemoryPerUnit bounds each unit's buffer, keeping the hot set
	// contended instead of fully cached.
	MemoryPerUnit int64
	// QueueDepth is the sim dispatch depth (Config.MaxQueuePerUnit):
	// deep queues are what give the batcher same-unit peers to fuse.
	QueueDepth int
	// Gate marks the scenario whose reads ratio CheckThresholds
	// enforces; ungated scenarios (e.g. the uniform-key control) are
	// reported for context only.
	Gate bool
}

// Scenarios returns the tracked cells. smoke keeps only a reduced
// gated cell so CI proves the whole pipeline in seconds.
func Scenarios(smoke bool) []Scenario {
	hot := Scenario{
		Name:          "hot/P=8",
		Units:         8,
		Queries:       1600,
		NumKeys:       64,
		ZipfS:         1.4,
		QPS:           4000,
		MemoryPerUnit: 1 << 20,
		QueueDepth:    48,
		Gate:          true,
	}
	if smoke {
		hot.Queries = 300
		return []Scenario{hot}
	}
	uniform := hot
	uniform.Name = "uniform/P=8"
	uniform.ZipfS = 0
	uniform.Gate = false
	return []Scenario{hot, uniform}
}

// graphVertices and graphEdges size the fixture: a power-law social
// graph whose hubs are what the Zipf-hot keys land on.
const (
	graphVertices = 20000
	graphEdges    = 100000
)

// fixtureGraph builds the shared benchmark graph.
func fixtureGraph() (*graph.Graph, error) {
	return graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: graphVertices,
		NumEdges:    graphEdges,
		Exponent:    2.2,
		Kind:        graph.Undirected,
		Seed:        Seed,
		VertexMeta:  true,
	})
}

// hubRank returns vertices sorted by descending degree (ties by id),
// so key k maps to the k-th busiest vertex and Zipf-hot keys become
// overlapping hub traversals.
func hubRank(g *graph.Graph) []graph.VertexID {
	order := make([]graph.VertexID, g.NumVertices())
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}

// tasks materializes the scenario's open-loop plan as simulator tasks:
// loadgen draws arrivals, ops and Zipfian keys; the keys index the
// degree-ranked hub list.
func tasks(sc Scenario, g *graph.Graph) ([]*sched.Task, error) {
	hubs := hubRank(g)
	if int(sc.NumKeys) > len(hubs) {
		return nil, fmt.Errorf("sharebench: %d keys for %d vertices", sc.NumKeys, len(hubs))
	}
	// Enough virtual time for the thinned Poisson plan to cover the
	// target count with slack; the plan is truncated to exactly
	// sc.Queries events.
	duration := int64(float64(sc.Queries)/sc.QPS*1e9*1.5) + 1
	plan, err := loadgen.BuildPlan(loadgen.Config{
		Seed:          Seed,
		DurationNanos: duration,
		QPS:           sc.QPS,
		NumKeys:       sc.NumKeys,
		ZipfS:         sc.ZipfS,
		Mix:           loadgen.OpMix{BFS: 0.65, SSSP: 0.35},
	})
	if err != nil {
		return nil, err
	}
	if len(plan.Events) < sc.Queries {
		return nil, fmt.Errorf("sharebench: plan yielded %d events, need %d", len(plan.Events), sc.Queries)
	}
	out := make([]*sched.Task, sc.Queries)
	for i, ev := range plan.Events[:sc.Queries] {
		q := traverse.Query{Start: hubs[ev.Start]}
		switch ev.Op {
		case loadgen.OpBFS:
			q.Op = traverse.OpBFS
			q.Depth = 2
			q.MaxVisits = 300
		case loadgen.OpSSSP:
			q.Op = traverse.OpSSSP
			q.Target = hubs[ev.Target]
			q.Depth = 4
		default:
			return nil, fmt.Errorf("sharebench: unexpected op %q in plan", ev.Op)
		}
		out[i] = &sched.Task{ID: int64(i), Query: q, Arrival: ev.ArrivalNanos}
	}
	return out, nil
}

// modes are the sharing configurations every scenario is replayed
// under: lockstep batching off, then on.
var modes = []struct {
	name   string
	batchK int
}{
	{"baseline", 0},
	{"batch", BatchK},
}

// runMode replays tasks on a fresh cluster under one sharing
// configuration, returning the run measurements and every task's
// semantic result.
func runMode(g *graph.Graph, sc Scenario, name string, batchK int, ts []*sched.Task) (sim.Result, map[int64]traverse.Result, error) {
	c, err := sim.NewCluster(g, sim.Config{
		NumUnits:        sc.Units,
		MemoryPerUnit:   sc.MemoryPerUnit,
		MaxQueuePerUnit: sc.QueueDepth,
		BatchTraversals: batchK,
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	perTask := make(map[int64]traverse.Result, len(ts))
	c.OnComplete = func(task *sched.Task, r traverse.Result) {
		perTask[task.ID] = r
	}
	res, err := c.Run(sched.NewBaseline(Seed), ts)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if int(res.Completed) != len(ts) {
		return sim.Result{}, nil, fmt.Errorf("sharebench: %s/%s completed %d of %d", sc.Name, name, res.Completed, len(ts))
	}
	return res, perTask, nil
}

// runScenario measures one scenario in both modes and checks
// cross-mode result identity.
func runScenario(sc Scenario, g *graph.Graph, logf func(format string, args ...any)) (ScenarioReport, error) {
	ts, err := tasks(sc, g)
	if err != nil {
		return ScenarioReport{}, err
	}
	out := ScenarioReport{
		Name:       sc.Name,
		Units:      sc.Units,
		Queries:    sc.Queries,
		ZipfS:      sc.ZipfS,
		QueueDepth: sc.QueueDepth,
		BatchK:     BatchK,
		Gate:       sc.Gate,
	}
	var baseline map[int64]traverse.Result
	identical := true
	for _, m := range modes {
		res, perTask, err := runMode(g, sc, m.name, m.batchK, ts)
		if err != nil {
			return ScenarioReport{}, err
		}
		if baseline == nil {
			baseline = perTask
		} else if !reflect.DeepEqual(baseline, perTask) {
			identical = false
		}
		st := ModeStats{
			Mode:              m.name,
			QueriesPerSec:     res.ThroughputPerSec,
			MakespanMs:        float64(res.Makespan.Nanoseconds()) / 1e6,
			DiskRequests:      res.Disk.Requests,
			DiskReadsPerQuery: perQuery(res.Disk.Requests, res.Completed),
			CacheHitRate:      res.HitRate,
		}
		out.Modes = append(out.Modes, st)
		logf("%-14s %-9s %8.0f q/s  %6.2f reads/query  %7d reads  hit %.3f",
			sc.Name, m.name, st.QueriesPerSec, st.DiskReadsPerQuery, st.DiskRequests, st.CacheHitRate)
	}
	out.ResultsIdentical = identical
	out.ReadsRatio = ratio(out.Modes[0].DiskReadsPerQuery, out.Modes[len(out.Modes)-1].DiskReadsPerQuery)
	logf("%-14s batching cuts disk reads %.2fx (results identical: %v)", sc.Name, out.ReadsRatio, identical)
	return out, nil
}

func perQuery(n, completed int64) float64 {
	if completed == 0 {
		return 0
	}
	return float64(n) / float64(completed)
}

// ratio divides with a floored denominator so a fully-shared run
// (zero residual reads) still reports a finite, JSON-encodable ratio.
func ratio(a, b float64) float64 {
	if b <= 0 {
		b = 1e-9
		if a <= 0 {
			return 1
		}
	}
	return a / b
}

// Run executes the suite and assembles the report. smoke runs the
// reduced scenario set (CI); a full run produces the tracked baseline.
func Run(smoke bool, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g, err := fixtureGraph()
	if err != nil {
		return nil, err
	}
	rep := &Report{Smoke: smoke, BatchK: BatchK}
	for _, sc := range Scenarios(smoke) {
		sr, err := runScenario(sc, g, logf)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	return rep, nil
}
