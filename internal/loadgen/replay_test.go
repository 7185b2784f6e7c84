package loadgen

import (
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

func replayGraph(t *testing.T) *graph.Graph {
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

// replayCluster is a small deployment with a cheap disk, so a query
// costs on the order of a virtual millisecond.
func replayCluster() sim.Config {
	cost := sim.DefaultCostModel()
	cost.Disk.SeekNanos = 100_000
	return sim.Config{NumUnits: 2, MemoryPerUnit: 1 << 20, Cost: cost, MaxPending: 16}
}

func TestEventQueryShapesEveryOp(t *testing.T) {
	t.Parallel()
	g := replayGraph(t)
	cfg := baseConfig()
	cfg.QPS = 50
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := plan.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	ops := map[traverse.Op]int{}
	for i, task := range tasks {
		ev := plan.Events[i]
		if err := task.Query.Validate(g); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Op, err)
		}
		if task.Query.Op.String() != ev.Op || task.ID != int64(ev.Index) || task.Arrival != ev.ArrivalNanos ||
			task.Tenant != ev.Tenant || task.Deadline != ev.ArrivalNanos+ev.TimeoutNanos {
			t.Fatalf("event %+v became task %+v", ev, task)
		}
		if ev.Op == OpRWR && task.Query.Seed != ev.Seed || ev.Op == OpSSSP && int32(task.Query.Target) != ev.Target {
			t.Fatalf("event %+v lost its seed or target: %+v", ev, task.Query)
		}
		ops[task.Query.Op]++
	}
	if len(ops) != 4 {
		t.Errorf("default mix produced ops %v, want all four", ops)
	}
	plan.Events[0].TimeoutNanos = 0
	if tasks, _ = plan.Tasks(); tasks[0].Deadline != 0 {
		t.Errorf("event without a timeout got deadline %d", tasks[0].Deadline)
	}
	plan.Events[0].Op = "pagerank"
	if _, err := plan.Tasks(); err == nil {
		t.Error("unknown op accepted")
	}
}

// TestReplayShowsOverloadKnee runs one plan per load level through the
// simulator under both policies: below the knee goodput tracks offered
// load; past it the excess surfaces as rejections and timeouts — the
// open-loop signature a closed-loop driver would hide — and every
// event still resolves exactly once.
func TestReplayShowsOverloadKnee(t *testing.T) {
	t.Parallel()
	g := replayGraph(t)
	run := func(policy string, qps float64) *Report {
		cfg := baseConfig()
		cfg.QPS = qps
		cfg.NumKeys = 3000
		cfg.DurationNanos = 2_000_000_000
		cfg.TimeoutNanos = 100_000_000
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, res, err := Replay(g, replayCluster(), policy, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Policy != policy || res.Scheduler != policy {
			t.Errorf("asked for %q: report says %q, the simulator ran %q", policy, rep.Policy, res.Scheduler)
		}
		if life := res.Lifecycle; int(life.Submitted) != rep.Offered || int(life.Completed) != rep.OK ||
			int(life.Rejected) != rep.Rejected || int(life.TimedOut) != rep.Timeout || rep.Failed+rep.Transport+rep.Retries != 0 {
			t.Errorf("%s at %g q/s: the report %+v is not the simulator's lifecycle %v", policy, qps, rep, life)
		}
		return rep
	}
	for _, policy := range []string{PolicySCH, PolicyBaseline} {
		light, heavy := run(policy, 20), run(policy, 4000)
		if light.GoodputQPS < 0.95*light.OfferedQPS {
			t.Errorf("%s, light load: goodput %.1f vs offered %.1f, want ~equal", policy, light.GoodputQPS, light.OfferedQPS)
		}
		if heavy.GoodputQPS > 0.6*heavy.OfferedQPS {
			t.Errorf("%s, heavy load: goodput %.1f vs offered %.1f, want a visible gap", policy, heavy.GoodputQPS, heavy.OfferedQPS)
		}
		if heavy.Rejected == 0 {
			t.Errorf("%s, heavy load: no rejections past an admission bound of 16", policy)
		}
		if heavy.LatencyP99Nanos < light.LatencyP99Nanos {
			t.Errorf("%s: p99 fell under overload: %.0f < %.0f", policy, heavy.LatencyP99Nanos, light.LatencyP99Nanos)
		}
		for _, rep := range []*Report{light, heavy} {
			if rep.OK+rep.Failed+rep.Rejected+rep.Timeout+rep.Transport != rep.Offered {
				t.Errorf("%s: outcome partition broken: %+v", policy, rep)
			}
			for _, tr := range rep.Tenants {
				if tr.OK+tr.Failed+tr.Rejected+tr.Timeout+tr.Transport != tr.Offered {
					t.Errorf("%s: tenant %s partition broken: %+v", policy, tr.Tenant, tr)
				}
			}
		}
	}
	if _, _, err := Replay(g, replayCluster(), "fifo", &Plan{Config: baseConfig()}); err == nil {
		t.Error("unknown policy accepted")
	}
}
