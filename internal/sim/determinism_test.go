package sim

import (
	"reflect"
	"strings"
	"testing"

	"subtrav/internal/graphgen"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// Regression for the CollabFilter map-range bug: two identical seeded
// runs through the full simulator — traversal kernels, trace replay,
// caches, shared disk, visit signatures — must produce byte-identical
// trace spans and identical semantic results. Before the kernels
// iterated insertion-ordered side lists, hop-2 map-range order leaked
// into trace order, so cache evictions, miss counts, and completion
// times drifted between runs of the same workload.
func TestClusterCollabRunsAreIdentical(t *testing.T) {
	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers: 800, NumProducts: 300,
		PurchasesPerCustomerMean: 8, PopularityExponent: 2.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := bip.Graph

	var tasks []*sched.Task
	for i := 0; i < 60; i++ {
		tasks = append(tasks, &sched.Task{
			ID:      int64(i),
			Arrival: int64(i) * 40_000,
			Query: traverse.Query{
				Op:                  traverse.OpCollab,
				Start:               bip.ProductVertex((i * 13) % 300),
				SimilarityThreshold: 0.1,
			},
		})
	}

	type runOut struct {
		spans   string // CSV rows, completion order
		results map[int64]traverse.Result
		res     Result
	}
	run := func() runOut {
		t.Helper()
		c, err := NewCluster(g, Config{NumUnits: 4, MemoryPerUnit: 64 << 10, Cost: fastCost()})
		if err != nil {
			t.Fatal(err)
		}
		ring := obs.NewRing(len(tasks))
		c.SetTrace(ring)
		results := make(map[int64]traverse.Result)
		c.OnComplete = func(task *sched.Task, r traverse.Result) {
			results[task.ID] = r
		}
		res, err := c.Run(sched.NewRoundRobin(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		var rows strings.Builder
		for _, s := range ring.Last(len(tasks)) {
			rows.WriteString(s.CSVRow() + "\n")
		}
		return runOut{spans: rows.String(), results: results, res: res}
	}

	a, b := run(), run()
	if a.spans != b.spans {
		t.Error("trace spans differ between identical runs")
	}
	if !reflect.DeepEqual(a.results, b.results) {
		t.Error("per-task results differ between identical runs")
	}
	if !reflect.DeepEqual(a.res, b.res) {
		t.Error("run measurements differ between identical runs")
	}
	if len(a.results) != len(tasks) {
		t.Fatalf("completed %d tasks, want %d", len(a.results), len(tasks))
	}
	// Spot-check against the reference kernel: the simulator's retained
	// results must match a direct reference execution of the query.
	for _, task := range tasks[:5] {
		want, _, err := traverse.ExecuteReference(g, task.Query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.results[task.ID], want) {
			t.Errorf("task %d: simulator result diverged from reference kernel", task.ID)
		}
	}
}
