package main

import (
	"fmt"
	"os"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/auction"
	"subtrav/internal/cache"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/sim"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// idleUnit is the scheduler's view of a unit with nothing queued: the replay
// times the scheduler's own work, not a queue state.
type idleUnit struct{ budget int64 }

func (idleUnit) QueueLen() int            { return 0 }
func (idleUnit) CompletedSince(int64) int { return 0 }
func (idleUnit) Busy() bool               { return false }
func (u idleUnit) MemoryBudget() int64    { return u.budget }

// replayRound is how many tasks one replayed scheduling round carries.
const replayRound = 8

// replay pushes the first replayN queries of the workload's list through the
// public functions of each layer, single-threaded and with nothing else
// running, one timed loop per metric. The counts it reports (accesses,
// allocations, lock acquisitions) repeat exactly for a seed.
func (r *run) replay(g *graph.Graph) (float64, error) {
	began := time.Now()
	qs := r.in.query[:r.spec.replayN]
	nq := float64(len(qs))

	// traverse: ExecuteIn on one reused Workspace. The first pass sizes
	// the workspace's buffers and keeps every trace for the layers below.
	ws := traverse.NewWorkspace(g.NumVertices())
	var accesses []traverse.Access
	touched := make([][]graph.VertexID, len(qs))
	for i, q := range qs {
		_, tr, err := traverse.ExecuteIn(ws, g, q)
		if err != nil {
			return 0, fmt.Errorf("replay query %d: %w", i, err)
		}
		accesses = append(accesses, tr.Accesses...)
		touched[i] = append([]graph.VertexID(nil), tr.Touched...)
	}
	var kernelNs, kernelAllocs float64
	for op, name := range map[traverse.Op]string{
		traverse.OpBFS: "traverse.bfs_us", traverse.OpSSSP: "traverse.sssp_us",
		traverse.OpCollab: "traverse.collab_us", traverse.OpRWR: "traverse.rwr_us",
	} {
		var n float64
		ns, allocs := timed(func() {
			for _, q := range qs {
				if q.Op == op {
					traverse.ExecuteIn(ws, g, q)
					n++
				}
			}
		})
		r.set(name, ratio(ns/1e3, n))
		kernelNs, kernelAllocs = kernelNs+ns, kernelAllocs+allocs
	}
	kernelUs := kernelNs / 1e3 / nq
	r.set("traverse.kernel_us_per_query", kernelUs)
	r.set("traverse.kernel_ns_per_access", kernelNs/float64(len(accesses)))
	r.set("traverse.accesses_per_query", float64(len(accesses))/nq)
	r.set("traverse.kernel_allocs_per_query", kernelAllocs/nq)

	// traverse.Batch over groups of 16 of the BFS/SSSP queries: the
	// lockstep generation the default stack never runs.
	var batchable []traverse.Query
	for _, q := range qs {
		if traverse.Batchable(q.Op) {
			batchable = append(batchable, q)
		}
	}
	batchable = batchable[:len(batchable)/16*16]
	if len(batchable) > 0 {
		b := traverse.NewBatch(g.NumVertices())
		var err error
		run := func() {
			for i := 0; i < len(batchable) && err == nil; i += 16 {
				_, _, _, err = b.Run(g, batchable[i:i+16])
			}
		}
		run()
		ns, _ := timed(run)
		if err != nil {
			return 0, fmt.Errorf("replay batch: %w", err)
		}
		r.set("traverse.batch16_us_per_query", ns/1e3/float64(len(batchable)))
	}

	// cache: the traces through one buffer of the workload's budget, the
	// way the charge loops use it (Contains, then Access).
	c := cache.New(r.spec.memPerUnit)
	ns, allocs := timed(func() {
		for _, a := range accesses {
			k := cache.VertexKey(int32(a.Vertex))
			c.Contains(k)
			c.Access(k, int64(a.Bytes))
		}
	})
	r.set("cache.access_ns", ns/float64(len(accesses)))
	r.set("cache.allocs_per_miss", ratio(allocs, float64(c.Stats().Misses)))

	// storage: the virtual-time disk on the same request sizes.
	disk := storage.NewDisk(sim.DefaultCostModel().Disk)
	var now int64
	ns, _ = timed(func() {
		for _, a := range accesses {
			now = disk.Read(now, int64(a.Bytes))
		}
	})
	r.set("storage.virtual_read_ns", ns/float64(len(accesses)))

	// signature: record every touched vertex, query i on unit i mod P.
	// This is also what warms the table for the scheduler replays.
	sigs := signature.NewTable(0)
	clock := &signature.ManualClock{}
	var records float64
	ns, _ = timed(func() {
		for i, vs := range touched {
			for _, v := range vs {
				sigs.Record(v, int32(i%r.spec.units), int64(i))
			}
			records += float64(len(vs))
		}
	})
	clock.Set(int64(len(touched)))
	r.set("signature.record_ns", ns/records)

	// sched / affinity / auction: rounds of replayRound of the same queries.
	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		return 0, err
	}
	auc, err := sched.NewAuction(scorer, sched.AuctionConfig{NumUnits: r.spec.units, Epsilon: 1e-3, WorkloadAware: true})
	if err != nil {
		return 0, err
	}
	units := make([]sched.UnitState, r.spec.units)
	views := make([]affinity.UnitView, r.spec.units)
	for i := range units {
		units[i], views[i] = idleUnit{r.spec.memPerUnit}, idleUnit{r.spec.memPerUnit}
	}
	var rounds [][]*sched.Task
	var anchors [][][]graph.VertexID
	for lo := 0; lo+replayRound <= len(qs); lo += replayRound {
		var round []*sched.Task
		var anch [][]graph.VertexID
		for i, q := range qs[lo : lo+replayRound] {
			round = append(round, &sched.Task{ID: int64(lo + i), Query: q})
			vs := []graph.VertexID{q.Start}
			if q.Op == traverse.OpSSSP && q.Target != q.Start {
				vs = append(vs, q.Target)
			}
			anch = append(anch, vs)
		}
		rounds, anchors = append(rounds, round), append(anchors, anch)
	}
	nr := float64(len(rounds))
	locks0 := sigs.LockAcquisitions()
	ns, _ = timed(func() {
		for _, round := range rounds {
			auc.Assign(round, units)
		}
	})
	r.set("sched.assign_us_per_task", ns/1e3/(nr*replayRound))
	r.set("signature.locks_per_round", float64(sigs.LockAcquisitions()-locks0)/nr)

	problems := make([]auction.Problem, len(rounds))
	ns, _ = timed(func() {
		for i, anch := range anchors {
			m := scorer.BuildAnchors(anch, views)
			p := auction.Problem{NumCols: m.NumUnits, Rows: make([][]auction.Arc, len(m.Rows))}
			for k, row := range m.Rows {
				for _, e := range row {
					p.Rows[k] = append(p.Rows[k], auction.Arc{Col: e.Unit, Benefit: e.Benefit})
				}
			}
			problems[i] = p
		}
	})
	r.set("affinity.build_us_per_round", ns/1e3/nr)
	prices := make([]float64, r.spec.units)
	ns, _ = timed(func() {
		for _, p := range problems {
			for i := range prices {
				prices[i] = 0
			}
			auction.SolvePriced(p, auction.Options{Epsilon: 1e-3}, prices)
		}
	})
	r.set("auction.solve_us_per_round", ns/1e3/nr)
	r.span("replay", "", -1, began.UnixNano(), time.Now().UnixNano())
	return kernelUs, nil
}

// graphioMetrics times the two ways a snapshot becomes a graph.
func (r *run) graphioMetrics(load time.Duration) error {
	fi, err := os.Stat(r.in.path)
	if err != nil {
		return err
	}
	var opens []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		m, err := graphio.OpenCSRFile(r.in.path)
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		if err := m.Close(); err != nil {
			return err
		}
	}
	r.set("graphio.load_ms", float64(load)/1e6)
	r.set("graphio.mmap_open_ms", quantile(opens, 0.5))
	r.set("graphio.snapshot_mb", float64(fi.Size())/(1<<20))
	return nil
}
