package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/workload"
)

// TestAdmissionRule is the table of the one accept/reject rule both
// executors call. Each row replays arrivals ("name") and resolutions
// ("-name") against one Admission and lists the verdict of every
// arrival.
func TestAdmissionRule(t *testing.T) {
	many := make([]string, 0, MaxTenants+3)
	for i := 0; i < MaxTenants; i++ {
		many = append(many, fmt.Sprintf("t%02d", i))
	}
	const ok, full, share = Admitted, QueueFull, TenantOverShare
	for _, tc := range []struct {
		name        string
		maxPending  int
		tenantShare float64
		steps       []string
		want        []Verdict
	}{
		{"unbounded never refuses, share or not", 0, 0.5,
			[]string{"a", "a", "a", "a", "a"}, []Verdict{ok, ok, ok, ok, ok}},
		{"global bound, and a release reopens it", 2, 0,
			[]string{"a", "b", "a", "-b", "a", "b"}, []Verdict{ok, ok, full, ok, full}},
		{"share of 1 or more is no cap", 3, 1,
			[]string{"a", "a", "a", "a"}, []Verdict{ok, ok, ok, full}},
		{"cap is the ceiling: ceil(0.5·5) = 3", 5, 0.5,
			[]string{"a", "a", "a", "a", "b"}, []Verdict{ok, ok, ok, share, ok}},
		{"cap is at least 1", 4, 0.01,
			[]string{"a", "a", "b", "-a", "a"}, []Verdict{ok, share, ok, ok}},
		{"the global bound wins over the tenant cap", 2, 0.5,
			[]string{"a", "b", "a", "-b", "a"}, []Verdict{ok, ok, full, share}},
		{"the empty name is the default tenant", 4, 0.5,
			[]string{"", DefaultTenant, ""}, []Verdict{ok, ok, share}},
		{"tenants past the cap share the overflow bucket's quota", 4 * MaxTenants, 1.0 / (2 * MaxTenants),
			append(append([]string(nil), many...), "x", "y", "z", "t00"), func() []Verdict {
				v := make([]Verdict, MaxTenants, MaxTenants+4)
				return append(v, ok, ok, share, ok) // cap 2: x and y fill overflow, z is refused; t00 has its own
			}()},
	} {
		a := NewAdmission(tc.maxPending, tc.tenantShare)
		var got []Verdict
		for _, step := range tc.steps {
			if len(step) > 0 && step[0] == '-' {
				a.Release(a.Tenant(step[1:]))
				continue
			}
			got = append(got, a.Admit(a.Tenant(step)))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: verdicts %v, want %v", tc.name, got, tc.want)
		}
	}

	a := NewAdmission(0, 0)
	for _, name := range append(many, "x", "y") {
		a.Tenant(name)
	}
	if x, y := a.Tenant("x"), a.Tenant("y"); x != y || x != MaxTenants || a.Label(x) != OverflowTenant {
		t.Errorf("past the cap: x in bucket %d, y in %d (%q), want both in bucket %d %q", x, y, a.Label(x), MaxTenants, OverflowTenant)
	}
	if b := a.Tenant(many[3]); b != 3 || a.Label(b) != many[3] {
		t.Errorf("tenant %q in bucket %d %q, want its own bucket 3", many[3], b, a.Label(b))
	}
}

// lifecycleTasks is a BFS stream that overloads a small cluster: a
// Poisson burst far above what the units serve, three tasks in four
// tenant "a" and the rest tenant "b". With a timeout, two tasks in
// three have a deadline that long after their arrival; the third has
// none and runs to completion, which is what makes the others wait
// past theirs in the pending pool (behind FIFO peers with the same
// timeout a task always leaves the pool in time: whoever made room for
// it resolved by an earlier deadline).
func lifecycleTasks(t *testing.T, g *graph.Graph, seed uint64, timeout int64) []*sched.Task {
	t.Helper()
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 150, Seed: seed, Arrival: workload.Poisson, RatePerSec: 1500,
		Locality: workload.DefaultLocality(),
	}, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		task.Tenant = "a"
		if i%4 == 3 {
			task.Tenant = "b"
		}
		if timeout > 0 && i%3 != 0 {
			task.Deadline = task.Arrival + timeout
		}
	}
	return tasks
}

// TestLifecycleConserves is the simulator's side of the invariant the
// chaos harness holds the live runtime to: over seeded overload
// streams × {unbounded, bounded admission with a tenant cap} × {no
// deadline, a tight one} × {SCH, baseline}, every task resolves exactly
// once and the partition is exact, globally and per tenant; the bounds
// hold at every instant; and a timed-out task is credited to no unit
// and signs nothing at its resolution.
func TestLifecycleConserves(t *testing.T) {
	g := testGraph(t)
	const maxPending, tenantShare = 6, 0.5 // a tenant cap of 3
	// Where timeouts were resolved, over the whole matrix: the fixture
	// must reach all three of the live runtime's check points.
	var leavingPool, atDequeue, midCharge int
	for seed := uint64(1); seed <= 3; seed++ {
		for _, bounded := range []bool{false, true} {
			for _, timeout := range []int64{0, 8_000_000} {
				for _, policy := range []string{"sch", "baseline"} {
					name := fmt.Sprintf("seed=%d/bounded=%t/timeout=%d/%s", seed, bounded, timeout, policy)
					cfg := Config{NumUnits: 3, MemoryPerUnit: 1 << 20, Cost: fastCost()}
					if bounded {
						cfg.MaxPending, cfg.TenantShare = maxPending, tenantShare
					}
					c, err := NewCluster(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var s sched.Scheduler = sched.NewBaseline(seed)
					if policy == "sch" {
						s = auctionFor(t, c)
					}
					tasks := lifecycleTasks(t, g, seed, timeout)
					ring := obs.NewRing(len(tasks))
					c.SetTrace(ring)
					res, err := c.Run(s, tasks)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}

					// Globally: the counters partition the stream.
					life := res.Lifecycle
					if !life.Conserved() || life.Submitted != int64(len(tasks)) || life.Completed != res.Completed {
						t.Errorf("%s: lifecycle %v over %d tasks, %d completed", name, life, len(tasks), res.Completed)
					}
					if !bounded && life.Rejected != 0 || timeout == 0 && life.TimedOut != 0 {
						t.Errorf("%s: %v — refused or dropped with nothing to refuse or drop it", name, life)
					}
					if bounded && life.Rejected == 0 || timeout > 0 && life.TimedOut == 0 {
						t.Errorf("%s: %v — the fixture does not overload the cluster", name, life)
					}
					if c.adm.InFlight() != 0 {
						t.Errorf("%s: %d still in flight after the run", name, c.adm.InFlight())
					}

					// Per task: exactly one span; per tenant and outcome,
					// the spans are the counters.
					spans := ring.Last(len(tasks))
					if len(spans) != len(tasks) {
						t.Fatalf("%s: %d spans for %d tasks", name, len(spans), len(tasks))
					}
					byID := make(map[int64]*sched.Task, len(tasks))
					for _, task := range tasks {
						byID[task.ID] = task
					}
					tenants := map[string]*metrics.Snapshot{"a": {}, "b": {}}
					var total metrics.Snapshot
					for _, sp := range spans {
						task := byID[sp.QueryID]
						if task == nil {
							t.Fatalf("%s: span for unknown or repeated task %d", name, sp.QueryID)
						}
						delete(byID, sp.QueryID)
						if sp.Tenant != task.Tenant {
							t.Errorf("%s: task %d of tenant %q traced as %q", name, task.ID, task.Tenant, sp.Tenant)
						}
						for _, n := range []*metrics.Snapshot{tenants[sp.Tenant], &total} {
							n.Submitted++
							switch sp.Outcome {
							case obs.OutcomeCompleted:
								n.Completed++
							case obs.OutcomeRejected:
								n.Rejected++
							case obs.OutcomeTimeout:
								n.TimedOut++
							}
						}
						switch {
						case sp.Outcome == obs.OutcomeRejected:
							if sp.Unit != -1 || sp.EndNanos != task.Arrival || sp.ScheduleNanos != 0 {
								t.Errorf("%s: rejected task %d went past admission: %+v", name, task.ID, sp)
							}
						case sp.Outcome != obs.OutcomeTimeout:
						case sp.EndNanos < task.Deadline:
							t.Errorf("%s: task %d timed out at %d, before its deadline %d", name, task.ID, sp.EndNanos, task.Deadline)
						case sp.Unit < 0:
							leavingPool++
						case sp.StartNanos == 0:
							atDequeue++
						default:
							midCharge++
						}
					}
					if total != life {
						t.Errorf("%s: spans partition as %v, the counters as %v", name, total, life)
					}
					for tenant, n := range tenants {
						if !n.Conserved() || n.Submitted == 0 {
							t.Errorf("%s: tenant %q: %v", name, tenant, n)
						}
						if b := c.adm.Tenant(tenant); c.adm.TenantInFlight(b) != 0 {
							t.Errorf("%s: tenant %q has %d still in flight", name, tenant, c.adm.TenantInFlight(b))
						}
					}

					if bounded {
						checkBounds(t, name, spans, maxPending, 3)
					}
					checkTimedOutLeftNoMark(t, name, c, spans, res)
				}
			}
		}
	}
	if leavingPool == 0 || atDequeue == 0 || midCharge == 0 {
		t.Errorf("timeouts resolved leaving the pool / at dequeue / mid-charge: %d / %d / %d, want all three reached",
			leavingPool, atDequeue, midCharge)
	}
}

// checkBounds sweeps the admitted spans' in-flight intervals and checks
// that the pool never held more than maxPending tasks, nor one tenant
// more than tenantCap. At one instant resolutions are counted before
// arrivals — the order most favourable to the rule, so a violation is
// one under any order.
func checkBounds(t *testing.T, name string, spans []obs.Span, maxPending, tenantCap int) {
	t.Helper()
	type edge struct {
		at     int64
		delta  int
		tenant string
	}
	var edges []edge
	for _, sp := range spans {
		if sp.Outcome != obs.OutcomeRejected {
			edges = append(edges, edge{sp.SubmitNanos, +1, sp.Tenant}, edge{sp.EndNanos, -1, sp.Tenant})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	inflight, perTenant := 0, map[string]int{}
	for _, e := range edges {
		inflight += e.delta
		perTenant[e.tenant] += e.delta
		if inflight > maxPending || perTenant[e.tenant] > tenantCap {
			t.Errorf("%s: at %d ns %d in flight (bound %d), %d of tenant %q (cap %d)",
				name, e.at, inflight, maxPending, perTenant[e.tenant], e.tenant, tenantCap)
			return
		}
	}
}

// checkTimedOutLeftNoMark checks that timed-out tasks are credited to
// no unit and that none of them signed its trace into L(v) when it
// resolved. A completion stamps every vertex its task touched with
// (unit, end). At the (unit, end) of a timed-out span at most one vertex
// may carry the stamp — the first miss of the task the freed unit
// started at that instant, signed by the per-miss rule marked in step —
// unless a completion on that unit at that instant is what freed it to
// dequeue the expired task, in which case the stamps are the
// completion's and the span is skipped. (What a task cut short
// mid-charge signed per miss before its timeout, stamped with each
// miss's own earlier instant, stands: those records were loaded into
// that unit's buffer.)
func checkTimedOutLeftNoMark(t *testing.T, name string, c *Cluster, spans []obs.Span, res Result) {
	t.Helper()
	var credited int64
	for _, n := range res.TasksPerUnit {
		credited += n
	}
	if credited != res.Completed || res.Latency.Count != int(res.Completed) || res.Execution.Count != int(res.Completed) {
		t.Errorf("%s: %d tasks credited to units, %d latency and %d execution samples for %d completions",
			name, credited, res.Latency.Count, res.Execution.Count, res.Completed)
	}
	type stamp struct {
		unit int32
		at   int64
	}
	signed := map[stamp]int{}
	for v := 0; v < c.g.NumVertices(); v++ {
		for _, e := range c.sigs.Visitors(graph.VertexID(v)) {
			signed[stamp{e.Proc, e.Time}]++
		}
	}
	completions := map[stamp]bool{}
	for _, sp := range spans {
		if sp.Outcome == obs.OutcomeCompleted {
			completions[stamp{sp.Unit, sp.EndNanos}] = true
		}
	}
	for _, sp := range spans {
		at := stamp{sp.Unit, sp.EndNanos}
		if sp.Outcome == obs.OutcomeTimeout && !completions[at] && signed[at] > 1 {
			t.Errorf("%s: task %d timed out on unit %d at %d, and %d vertices are signed there",
				name, sp.QueryID, sp.Unit, sp.EndNanos, signed[at])
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.json from this tree's simulator")

// TestUnboundedAdmissionIsThePapersSimulator pins the claim the three
// cmp-gated artefacts rest on: with admission unbounded and no
// deadlines the lifecycle machinery is inert, and a run returns the
// Result the simulator returned before it had one. testdata/results.json
// holds the Results of the sim_test.go streams as the commit before
// Result.Lifecycle existed computed them (which is why the comparison
// leaves that field out and states it separately); a change that means
// to move a placement, a trace or a charge regenerates it with -update
// and says why.
func TestUnboundedAdmissionIsThePapersSimulator(t *testing.T) {
	g := testGraph(t)
	baseline := func(seed uint64) func(*Cluster) sched.Scheduler {
		return func(*Cluster) sched.Scheduler { return sched.NewBaseline(seed) }
	}
	auction := func(c *Cluster) sched.Scheduler { return auctionFor(t, c) }
	poisson, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 100, Seed: 10, Arrival: workload.Poisson, RatePerSec: 5000,
		Locality: workload.DefaultLocality(),
	}, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := workload.SSSP(g, workload.StreamConfig{NumQueries: 30, Seed: 13, Locality: workload.DefaultLocality()}, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(bfsTasks(t, g, 30, 12), sssp...)
	for i, task := range mixed {
		task.ID = int64(i)
	}
	streams := []struct {
		name  string
		cfg   Config
		sched func(*Cluster) sched.Scheduler
		tasks []*sched.Task
	}{
		{"baseline/bfs200", Config{NumUnits: 4, MemoryPerUnit: 1 << 20}, baseline(1), bfsTasks(t, g, 200, 2)},
		{"auction/bfs150", Config{NumUnits: 4, MemoryPerUnit: 1 << 20}, auction, bfsTasks(t, g, 150, 3)},
		{"baseline/single-unit", Config{NumUnits: 1, MemoryPerUnit: 1 << 20}, baseline(1), bfsTasks(t, g, 50, 4)},
		{"auction/small-buffers", Config{NumUnits: 8, MemoryPerUnit: 256 << 10}, auction, bfsTasks(t, g, 300, 5)},
		{"baseline/poisson", Config{NumUnits: 4, MemoryPerUnit: 1 << 20}, baseline(2), poisson},
		{"auction/mixed-ops", Config{NumUnits: 4, MemoryPerUnit: 1 << 20}, auction, mixed},
		{"baseline/slow-units", Config{NumUnits: 4, MemoryPerUnit: 1 << 20, SpeedFactors: []float64{1, 1, 4, 4}}, baseline(3), bfsTasks(t, g, 120, 14)},
		{"baseline/batch4", Config{NumUnits: 2, MemoryPerUnit: 1 << 20, MaxQueuePerUnit: 8, BatchTraversals: 4}, baseline(1), hubTasks(g, 24)},
	}

	got := map[string]Result{}
	for _, st := range streams {
		st.cfg.Cost = fastCost()
		c, err := NewCluster(g, st.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(st.sched(c), st.tasks)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		n := int64(len(st.tasks))
		if want := (metrics.Snapshot{Submitted: n, Completed: n}); res.Lifecycle != want {
			t.Errorf("%s: lifecycle %v, want %v", st.name, res.Lifecycle, want)
		}
		res.Lifecycle = metrics.Snapshot{}
		got[st.name] = res
	}

	const path = "testdata/results.json"
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want map[string]Result
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d streams, the table %d", len(want), len(got))
	}
	for name, res := range got {
		if !reflect.DeepEqual(res, want[name]) {
			t.Errorf("%s: the run moved:\n got %+v\nwant %+v", name, res, want[name])
		}
	}
}
