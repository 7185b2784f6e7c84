// Package sharebench measures the cross-query sharing layer — lockstep
// multi-source batching (traverse.Batch) — under Zipfian
// high-concurrency workloads, and emits the tracked BENCH_share.json
// artifact (see report.go). Like the other suites it is one table of
// cells on internal/benchkit (Table): a cell replays one scenario's
// task stream under one sharing mode; `go test -bench` times the
// replays, `subtrav-bench share` runs each once and reports what the
// simulator counted.
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
	"sync"

	"subtrav/internal/benchkit"
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

// table is the suite's one table of cells: a group per scenario (its
// task stream is the fixture), a cell per sharing mode. A cell replays
// the stream and writes what the simulator counted into its row of
// rep; the baseline cell also keeps every query's result, against which
// the later modes of its scenario check theirs.
func table(rep *Report, logf func(format string, args ...any)) []benchkit.Group {
	fixture := sync.OnceValues(fixtureGraph)
	var table []benchkit.Group
	for i, sc := range Scenarios(rep.Smoke) {
		rep.Scenarios = append(rep.Scenarios, ScenarioReport{
			Name:       sc.Name,
			Units:      sc.Units,
			Queries:    sc.Queries,
			ZipfS:      sc.ZipfS,
			QueueDepth: sc.QueueDepth,
			BatchK:     BatchK,
			Gate:       sc.Gate,
			Modes:      make([]ModeStats, len(modes)),
		})
		table = append(table, func() ([]benchkit.Cell, error) {
			g, err := fixture()
			if err != nil {
				return nil, err
			}
			ts, err := tasks(sc, g)
			if err != nil {
				return nil, err
			}
			var baseline map[int64]traverse.Result
			var cells []benchkit.Cell
			for j, m := range modes {
				cells = append(cells, benchkit.Cell{Name: sc.Name + "/" + m.name, Run: func() error {
					res, perTask, err := runMode(g, sc, m.name, m.batchK, ts)
					if err != nil {
						return err
					}
					out := &rep.Scenarios[i]
					if j == 0 {
						baseline, out.ResultsIdentical = perTask, true
					} else if !reflect.DeepEqual(baseline, perTask) {
						out.ResultsIdentical = false
					}
					st := ModeStats{
						Mode:              m.name,
						QueriesPerSec:     res.ThroughputPerSec,
						MakespanMs:        float64(res.Makespan.Nanoseconds()) / 1e6,
						DiskRequests:      res.Disk.Requests,
						DiskReadsPerQuery: benchkit.Ratio(float64(res.Disk.Requests), float64(res.Completed)),
						CacheHitRate:      res.HitRate,
					}
					out.Modes[j] = st
					out.ReadsRatio = benchkit.Ratio(out.Modes[0].DiskReadsPerQuery, st.DiskReadsPerQuery)
					logf("%-14s %-9s %8.0f q/s  %6.2f reads/query  %7d reads  hit %.3f  (%.2fx fewer reads than %s, results identical: %v)",
						sc.Name, m.name, st.QueriesPerSec, st.DiskReadsPerQuery, st.DiskRequests, st.CacheHitRate,
						out.ReadsRatio, modes[0].name, out.ResultsIdentical)
					return nil
				}})
			}
			return cells, nil
		})
	}
	return table
}

// Table is the suite's smoke table as `go test -bench` runs it.
func Table() []benchkit.Group {
	return table(&Report{Smoke: true}, func(string, ...any) {})
}

// Run executes the suite — every cell once, in table order, since
// virtual time needs no repetition — and returns the report the cells
// filled in. smoke runs the reduced scenario set (CI); a full run
// produces the tracked baseline.
func Run(smoke bool, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Smoke: smoke, BatchK: BatchK}
	if err := benchkit.Each(table(rep, logf), func(c benchkit.Cell) error { return c.Run() }); err != nil {
		return nil, fmt.Errorf("sharebench: %w", err)
	}
	return rep, nil
}
