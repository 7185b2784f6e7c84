package sim

import (
	"reflect"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// The cross-query sharing knob (Config.BatchTraversals) must change
// only disk traffic and timing, never the semantic result of any
// query. These tests run identical task sets with batching off and on
// and pin per-task results bit-for-bit while checking that batching
// actually removes disk work on overlapping workloads.

// hubTasks builds n identical BFS tasks rooted at the graph's
// highest-degree vertex, all arriving at t=0 — the maximally
// overlapping workload, where every unit misses on the same records
// at the same virtual time.
func hubTasks(g *graph.Graph, n int) []*sched.Task {
	hub, best := graph.VertexID(0), -1
	for v := graph.VertexID(0); v < graph.VertexID(g.NumVertices()); v++ {
		if d := g.Degree(v); d > best {
			hub, best = v, d
		}
	}
	tasks := make([]*sched.Task, n)
	for i := range tasks {
		tasks[i] = &sched.Task{
			ID:    int64(i),
			Query: traverse.Query{Op: traverse.OpBFS, Start: hub, Depth: 2, MaxVisits: 400},
		}
	}
	return tasks
}

// runShared executes tasks on a fresh cluster built from cfg and
// returns the run Result plus every task's semantic result.
func runShared(t *testing.T, g *graph.Graph, cfg Config, tasks []*sched.Task) (Result, map[int64]traverse.Result) {
	t.Helper()
	c, err := NewCluster(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perTask := make(map[int64]traverse.Result, len(tasks))
	c.OnComplete = func(task *sched.Task, r traverse.Result) {
		if _, dup := perTask[task.ID]; dup {
			t.Errorf("task %d completed twice", task.ID)
		}
		perTask[task.ID] = r
	}
	res, err := c.Run(sched.NewBaseline(7), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Completed) != len(tasks) || len(perTask) != len(tasks) {
		t.Fatalf("completed %d, OnComplete fired %d, want %d", res.Completed, len(perTask), len(tasks))
	}
	return res, perTask
}

func assertSameResults(t *testing.T, label string, base, got map[int64]traverse.Result) {
	t.Helper()
	for id, want := range base {
		if !reflect.DeepEqual(want, got[id]) {
			t.Fatalf("%s: task %d result diverged:\nbaseline: %+v\nsharing:  %+v", label, id, want, got[id])
		}
	}
}

func TestBatchTraversalsPreservesResultsCutsDiskRequests(t *testing.T) {
	g := testGraph(t)
	// A mix of overlapping hub queries and scattered random ones, so
	// batches form over partially shared frontiers.
	tasks := hubTasks(g, 16)
	for _, extra := range bfsTasks(t, g, 16, 5) {
		extra.ID += 16
		tasks = append(tasks, extra)
	}
	cfg := Config{NumUnits: 4, MemoryPerUnit: 1 << 20, Cost: fastCost()}

	baseRes, baseResults := runShared(t, g, cfg, tasks)

	cfg.BatchTraversals = 8
	batchRes, batchResults := runShared(t, g, cfg, tasks)

	assertSameResults(t, "batch", baseResults, batchResults)
	if batchRes.Completed != baseRes.Completed {
		t.Errorf("batched run completed %d, baseline %d", batchRes.Completed, baseRes.Completed)
	}
	if batchRes.Disk.Requests >= baseRes.Disk.Requests {
		t.Errorf("disk requests with batching = %d, baseline = %d; want strictly fewer",
			batchRes.Disk.Requests, baseRes.Disk.Requests)
	}
	if batchRes.VisitedVertices != baseRes.VisitedVertices {
		t.Errorf("visited %d with batching, %d without", batchRes.VisitedVertices, baseRes.VisitedVertices)
	}

	// Determinism: the batched executor replays identically.
	again, againResults := runShared(t, g, cfg, tasks)
	assertSameResults(t, "batch-rerun", batchResults, againResults)
	if again.Disk != batchRes.Disk {
		t.Errorf("disk stats differ across reruns:\n%+v\n%+v", again.Disk, batchRes.Disk)
	}
}

func TestBatchTraversalsConfigValidation(t *testing.T) {
	g := testGraph(t)
	for _, bad := range []int{-1, traverse.MaxBatch + 1} {
		_, err := NewCluster(g, Config{NumUnits: 1, Cost: fastCost(), BatchTraversals: bad})
		if err == nil {
			t.Errorf("BatchTraversals = %d accepted", bad)
		}
	}
	for _, ok := range []int{0, 1, 2, traverse.MaxBatch} {
		if _, err := NewCluster(g, Config{NumUnits: 1, Cost: fastCost(), BatchTraversals: ok}); err != nil {
			t.Errorf("BatchTraversals = %d rejected: %v", ok, err)
		}
	}
}
