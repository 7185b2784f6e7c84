package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"subtrav"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/loadgen"
	"subtrav/internal/sched"
	"subtrav/internal/service"
	"subtrav/internal/traverse"
	"subtrav/internal/workload"
	"subtrav/internal/xrand"
)

// inputs is everything a run feeds the program: the snapshot file the stack
// loads, the query list and the oracle's answers. Building it is input
// preparation and is never timed.
type inputs struct {
	path string // STRVCSR2 snapshot written from the generator's graph

	// Service workloads: one cyclic list in wire and executable form, and
	// the expected result of every oracle-checked index (nil elsewhere).
	wire   []service.WireQuery
	query  []traverse.Query
	oracle []*traverse.Result
	model  []traverse.Query // fixed-seed stream for the simulator's model run

	// sim-replay: the two task streams of one repetition.
	bfs, sssp []*sched.Task

	digest string // of the query list and the oracle's answers
}

// simStreamSeed draws sim-replay's task streams (see buildSim). Of the stream
// seeds 1-20 and 42 tried while sizing, 14, 15, 20 and 42 drew hotspots on
// which the auction's price wars double the allocations per task; 1 is one of
// the calm majority.
const simStreamSeed = 1

// oracleEvery is the share of the list answered beforehand by
// traverse.Execute on the generator's own graph (every query under -smoke).
const oracleEvery = 16

func buildInputs(s spec, seed uint64, smoke bool, outDir string) (*inputs, error) {
	g, err := subtrav.TwitterLike(s.scale, graphSeed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{path: filepath.Join(outDir, fmt.Sprintf("%s-%d.csr", s.name, os.Getpid()))}
	if err := graphio.WriteCSRFile(in.path, g); err != nil {
		return nil, err
	}
	if s.sim {
		err = in.buildSim(g, s, seed)
	} else {
		err = in.buildService(g, s, seed, smoke)
	}
	if err != nil {
		os.Remove(in.path)
		return nil, err
	}
	h := sha256.New()
	for i, q := range in.query {
		fmt.Fprintf(h, "%d %+v %+v\n", i, q, in.oracle[i])
	}
	in.digest = fmt.Sprintf("%x", h.Sum(nil))
	return in, nil
}

// buildService draws ops, keys, targets and RWR seeds from loadgen.BuildPlan
// (arrival times ignored) and shapes them as cmd/subtrav-load's fireEvent
// does. The model stream is drawn the same way from the fixed graph seed: a
// few thousand tasks are too few for the simulator's throughput to be steady
// from seed to seed, and virt_qps is there to catch a scheduler that places
// worse, not to sample streams.
func (in *inputs) buildService(g *graph.Graph, s spec, seed uint64, smoke bool) error {
	var err error
	if in.wire, in.query, err = planQueries(g, s, seed, s.listLen); err != nil {
		return err
	}
	if _, in.model, err = planQueries(g, s, graphSeed, s.replayN); err != nil {
		return err
	}
	in.oracle = make([]*traverse.Result, s.listLen)
	for i, q := range in.query {
		if smoke || i%oracleEvery == 0 {
			res, _, err := traverse.Execute(g, q)
			if err != nil {
				return fmt.Errorf("oracle query %d: %w", i, err)
			}
			in.oracle[i] = &res
		}
	}
	return nil
}

// planQueries returns the first n queries of the plan a seed gives, in wire
// and executable form.
func planQueries(g *graph.Graph, s spec, seed uint64, n int) ([]service.WireQuery, []traverse.Query, error) {
	plan, err := loadgen.BuildPlan(loadgen.Config{
		Seed: seed, DurationNanos: 1e9, QPS: 1.25 * float64(n),
		Mix: s.mix, NumKeys: int32(g.NumVertices()), ZipfS: s.zipf,
	})
	if err != nil {
		return nil, nil, err
	}
	if len(plan.Events) < n {
		return nil, nil, fmt.Errorf("plan has %d events, want %d", len(plan.Events), n)
	}
	wire, query := make([]service.WireQuery, n), make([]traverse.Query, n)
	for i, ev := range plan.Events[:n] {
		w := service.WireQuery{Op: ev.Op, Start: ev.Start}
		switch ev.Op {
		case loadgen.OpBFS:
			w.Depth, w.MaxVisits = s.bfsDepth, s.bfsMaxVisits
		case loadgen.OpSSSP:
			w.Target, w.Depth = ev.Target, 6
		case loadgen.OpCollab:
			w.SimilarityThreshold = 0.3
		case loadgen.OpRWR:
			w.Steps, w.RestartProb, w.TopK, w.Seed = 300, 0.2, 10, ev.Seed
		}
		if query[i], err = w.ToQuery(); err != nil {
			return nil, nil, err
		}
		wire[i] = w
	}
	return wire, query, nil
}

// buildSim builds one repetition's streams: listLen BFS tasks and half as
// many SSSP tasks, clustered by workload.DefaultLocality. The streams are
// drawn from a fixed seed and the run's seed only permutes their order: which
// 32 hotspots a stream seed draws decides how long the auction's price wars
// run (bidding rounds, and with them allocations and wall time per task, move
// up to fourfold between stream seeds — README), so streams drawn from the
// run's seed would be ten different workloads, not ten samples of one.
func (in *inputs) buildSim(g *graph.Graph, s spec, seed uint64) error {
	var err error
	cfg := workload.StreamConfig{NumQueries: s.listLen, Seed: simStreamSeed, Locality: workload.DefaultLocality()}
	if in.bfs, err = workload.BFS(g, cfg, s.bfsDepth, s.bfsMaxVisits); err != nil {
		return err
	}
	cfg.NumQueries, cfg.Seed = s.listLen/2, simStreamSeed+1
	if in.sssp, err = workload.SSSP(g, cfg, 6, 0); err != nil {
		return err
	}
	rng := xrand.New(seed)
	for _, tasks := range [][]*sched.Task{in.bfs, in.sssp} {
		for i := len(tasks) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			tasks[i], tasks[j] = tasks[j], tasks[i]
		}
		for i, t := range tasks {
			t.ID = int64(i) // IDs stay in arrival order
		}
	}
	// The layer replays read the streams through the same list the
	// service workloads use: two BFS queries, then one SSSP query.
	for i := range in.sssp {
		in.query = append(in.query, in.bfs[2*i].Query, in.bfs[2*i+1].Query, in.sssp[i].Query)
	}
	in.oracle = make([]*traverse.Result, len(in.query))
	return nil
}

// resultOf is the traversal result a reply carries.
func resultOf(r service.Reply) traverse.Result {
	res := traverse.Result{Visited: r.Visited, Found: r.Found, PathLen: r.PathLen}
	for _, rec := range r.Recommendations {
		res.Recommendations = append(res.Recommendations, traverse.Recommendation{Product: graph.VertexID(rec.Product), Similarity: rec.Similarity})
	}
	for _, rk := range r.Ranking {
		res.Ranking = append(res.Ranking, traverse.Ranked{Vertex: graph.VertexID(rk.Vertex), Score: rk.Score})
	}
	return res
}

// sameResult compares a result with the oracle's, field for field.
func sameResult(want, got traverse.Result) error {
	switch {
	case want.Visited != got.Visited:
		return fmt.Errorf("visited %d, oracle %d", got.Visited, want.Visited)
	case want.Found != got.Found || want.PathLen != got.PathLen:
		return fmt.Errorf("found/pathlen %t/%d, oracle %t/%d", got.Found, got.PathLen, want.Found, want.PathLen)
	case len(want.Recommendations) != len(got.Recommendations):
		return fmt.Errorf("%d recommendations, oracle %d", len(got.Recommendations), len(want.Recommendations))
	case len(want.Ranking) != len(got.Ranking):
		return fmt.Errorf("%d ranked, oracle %d", len(got.Ranking), len(want.Ranking))
	}
	for i, w := range want.Recommendations {
		if got.Recommendations[i] != w {
			return fmt.Errorf("recommendation %d = %+v, oracle %+v", i, got.Recommendations[i], w)
		}
	}
	for i, w := range want.Ranking {
		if got.Ranking[i] != w {
			return fmt.Errorf("rank %d = %+v, oracle %+v", i, got.Ranking[i], w)
		}
	}
	return nil
}
