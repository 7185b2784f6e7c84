package experiments

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/loadgen"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// The sharing study's fixture. It is its own, not the Config's: a
// power-law graph whose hubs the hot keys land on, deep queues that
// give the batcher same-unit peers to fuse, and buffers small enough
// that the hot set stays contended instead of cached.
const (
	shareSeed       = 0x5A4EB011 // graph, load plan and scheduler
	shareVertices   = 20000
	shareEdges      = 100000
	shareQueries    = 1600
	shareUnits      = 8
	shareQueueDepth = 48
	shareMemory     = 1 << 20
	shareKeys       = 64 // the busiest vertices, by degree
	shareQPS        = 4000
	// shareBatchK is traverse.MaxBatch: wave sharing scales with how
	// many overlapping frontiers advance together.
	shareBatchK = 32
)

// Share measures cross-query sharing: lockstep multi-source batching
// (sim.Config.BatchTraversals, built on traverse.Batch) against one
// traversal per query, replaying one open-loop BFS/SSSP stream through
// sim.Cluster in both modes. The hot cell draws its start keys
// Zipf-skewed, so its frontiers overlap; the uniform cell is the
// control. Every query's answer is compared across the two modes. A
// Config with fewer queries than the fixture (Quick) runs the hot cell
// alone at its own query count.
func Share(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells := []struct {
		name  string
		zipfS float64
	}{
		{"hot/P=8", 1.4},
		{"uniform/P=8", 0},
	}
	queries := shareQueries
	if cfg.Queries < shareQueries {
		cells, queries = cells[:1], cfg.Queries
	}
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: shareVertices,
		NumEdges:    shareEdges,
		Exponent:    2.2,
		Kind:        graph.Undirected,
		Seed:        shareSeed,
		VertexMeta:  true,
	})
	if err != nil {
		return nil, err
	}
	hubs := hubRank(g)

	t := &Table{
		Title: fmt.Sprintf("Extension: cross-query sharing, lockstep batching vs one traversal per query (%d units, queue depth %d, %d queries)",
			shareUnits, shareQueueDepth, queries),
		Columns: []string{"cell", "mode", "disk reads", "reads/query", "hit rate", "virtual q/s", "fewer reads", "results"},
		Notes: []string{
			fmt.Sprintf("%d-vertex power-law graph (seed 0x%X); open-loop 65/35 BFS/SSSP plan at %d q/s starting at the %d busiest vertices; %d MiB buffer per unit",
				shareVertices, shareSeed, shareQPS, shareKeys, shareMemory>>20),
			"hot draws keys Zipf s=1.4 and carries the floor (≥ 2x fewer reads); uniform draws them evenly, for context",
			"results: every query's answer compared across the two modes",
		},
	}
	for _, cell := range cells {
		tasks, err := shareTasks(hubs, cell.zipfS, queries)
		if err != nil {
			return nil, err
		}
		base, baseAnswers, err := shareRun(g, 0, tasks)
		if err != nil {
			return nil, err
		}
		batch, answers, err := shareRun(g, shareBatchK, tasks)
		if err != nil {
			return nil, err
		}
		results := "identical"
		if !reflect.DeepEqual(baseAnswers, answers) {
			results = "differ"
		}
		for _, m := range []struct {
			mode           string
			res            sim.Result
			fewer, results string
		}{
			{"baseline", base, "", ""},
			{fmt.Sprintf("batch K=%d", shareBatchK), batch,
				fmt.Sprintf("%.2fx", ratio(float64(base.Disk.Requests), float64(batch.Disk.Requests))), results},
		} {
			t.AddRow(cell.name, m.mode, m.res.Disk.Requests,
				fmt.Sprintf("%.2f", ratio(float64(m.res.Disk.Requests), float64(m.res.Completed))),
				fmt.Sprintf("%.3f", m.res.HitRate),
				fmt.Sprintf("%.2f", m.res.ThroughputPerSec),
				m.fewer, m.results)
		}
	}
	return t, nil
}

// hubRank returns the vertices by descending degree (ties by id), so
// key k maps to the k-th busiest vertex and Zipf-hot keys become
// overlapping hub traversals.
func hubRank(g *graph.Graph) []graph.VertexID {
	order := make([]graph.VertexID, g.NumVertices())
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	slices.SortFunc(order, func(a, b graph.VertexID) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// shareTasks materializes exactly n events of the open-loop plan as
// simulator tasks: loadgen draws arrivals, ops and keys, and the keys
// index the degree-ranked hubs.
func shareTasks(hubs []graph.VertexID, zipfS float64, n int) ([]*sched.Task, error) {
	// Enough virtual time for the thinned Poisson plan to cover n
	// events with slack.
	duration := int64(float64(n)/shareQPS*1e9*1.5) + 1
	plan, err := loadgen.BuildPlan(loadgen.Config{
		Seed:          shareSeed,
		DurationNanos: duration,
		QPS:           shareQPS,
		NumKeys:       shareKeys,
		ZipfS:         zipfS,
		Mix:           loadgen.OpMix{BFS: 0.65, SSSP: 0.35},
	})
	if err != nil {
		return nil, err
	}
	if len(plan.Events) < n {
		return nil, fmt.Errorf("experiments: share plan yielded %d events, need %d", len(plan.Events), n)
	}
	out := make([]*sched.Task, n)
	for i, ev := range plan.Events[:n] {
		q := traverse.Query{Start: hubs[ev.Start]}
		switch ev.Op {
		case loadgen.OpBFS:
			q.Op, q.Depth, q.MaxVisits = traverse.OpBFS, 2, 300
		case loadgen.OpSSSP:
			q.Op, q.Target, q.Depth = traverse.OpSSSP, hubs[ev.Target], 4
		default:
			return nil, fmt.Errorf("experiments: unexpected op %q in share plan", ev.Op)
		}
		out[i] = &sched.Task{ID: int64(i), Query: q, Arrival: ev.ArrivalNanos}
	}
	return out, nil
}

// shareRun replays tasks on a fresh cluster at lockstep batch width
// batchK (0: one traversal per query) and returns the run with every
// task's answer.
func shareRun(g *graph.Graph, batchK int, tasks []*sched.Task) (sim.Result, map[int64]traverse.Result, error) {
	c, err := sim.NewCluster(g, sim.Config{
		NumUnits:        shareUnits,
		MemoryPerUnit:   shareMemory,
		MaxQueuePerUnit: shareQueueDepth,
		BatchTraversals: batchK,
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	answers := make(map[int64]traverse.Result, len(tasks))
	c.OnComplete = func(task *sched.Task, r traverse.Result) { answers[task.ID] = r }
	res, err := c.Run(sched.NewBaseline(shareSeed), tasks)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if int(res.Completed) != len(tasks) {
		return sim.Result{}, nil, fmt.Errorf("experiments: share at batch width %d completed %d of %d", batchK, res.Completed, len(tasks))
	}
	return res, answers, nil
}
