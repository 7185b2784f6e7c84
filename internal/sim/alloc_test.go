package sim

import (
	"runtime"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

// TestRunAllocsPerTask pins what one simulated task costs the
// allocator: a fixed 512-task BFS stream on the tiny twitter-like graph
// (2 000 vertices, 15 000 edges, γ = 2.1) under SCH, measured on the
// second Run after Reset — the repetition every figure and the
// benchmark's sim-replay workload make — so queues, heap and sample
// lists are at capacity and what is left is what a run cannot keep: the
// task slab, one placement slice a scheduling round, the Result. With
// container/heap under the event loop and a sliding slice as the
// auction's bidder queue this read 450.
func TestRunAllocsPerTask(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under -race")
	}
	// shipped is the measured allocations ÷ tasks of the code as
	// committed, rounded up to one decimal; the guard allows one
	// allocation a task on top of it.
	const (
		numTasks = 512
		shipped  = 0.5
	)
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 2_000, NumEdges: 15_000, Exponent: 2.1,
		Kind: graph.Undirected, Seed: 42, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, g, 4, 1<<20)
	tasks := bfsTasks(t, g, numTasks, 7)
	s := auctionFor(t, c)
	if _, err := c.Run(s, tasks); err != nil {
		t.Fatal(err)
	}
	c.Reset()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := c.Run(s, tasks)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != numTasks {
		t.Fatalf("completed %d of %d", res.Completed, numTasks)
	}
	perTask := float64(after.Mallocs-before.Mallocs) / numTasks
	t.Logf("%.3f allocations a task", perTask)
	if perTask > shipped+1 {
		t.Errorf("%.2f allocations a task, want at most %.1f + 1", perTask, shipped)
	}
}
