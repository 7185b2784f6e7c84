package loadgen

import (
	"fmt"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// Placement policies Replay runs a plan under: the paper's
// balance-affinity scheduler and the random-placement baseline it is
// compared with. The values are the schedulers' own names.
const (
	PolicySCH      = "sch"
	PolicyBaseline = "baseline"
)

// Query is the traversal the harness issues for the event. It is the
// one statement of the per-op parameters: the live driver puts them on
// the wire and Replay runs them in the simulator, so the two modes
// cannot drift onto different queries.
func (ev Event) Query() (traverse.Query, error) {
	q := traverse.Query{Start: graph.VertexID(ev.Start)}
	switch ev.Op {
	case OpBFS:
		q.Op = traverse.OpBFS
		q.Depth = 2
		q.MaxVisits = 300
	case OpSSSP:
		q.Op = traverse.OpSSSP
		q.Target = graph.VertexID(ev.Target)
		q.Depth = 6
	case OpCollab:
		q.Op = traverse.OpCollab
		q.SimilarityThreshold = 0.3
	case OpRWR:
		q.Op = traverse.OpRWR
		q.Steps = 300
		q.RestartProb = 0.2
		q.TopK = 10
		q.Seed = ev.Seed
	default:
		return traverse.Query{}, fmt.Errorf("loadgen: event %d has unknown op %q", ev.Index, ev.Op)
	}
	return q, nil
}

// Tasks maps the plan's events to simulator tasks: the event's query,
// arriving at its planned offset for its tenant, with its timeout as
// an absolute deadline. A task's ID is its event's Index.
func (p *Plan) Tasks() ([]*sched.Task, error) {
	tasks := make([]*sched.Task, len(p.Events))
	for i, ev := range p.Events {
		q, err := ev.Query()
		if err != nil {
			return nil, err
		}
		t := &sched.Task{ID: int64(ev.Index), Query: q, Arrival: ev.ArrivalNanos, Tenant: ev.Tenant}
		if ev.TimeoutNanos > 0 {
			t.Deadline = ev.ArrivalNanos + ev.TimeoutNanos
		}
		tasks[i] = t
	}
	return tasks, nil
}

// Replay runs plan through the simulator — sim.Cluster, the executor
// that reproduces the paper's figures: real traversals over g, the
// scheduler, per-unit buffers, the shared disk, and the admission and
// deadline lifecycle of the live runtime — under one placement policy,
// and aggregates what every event came to into a Report. It is the
// reproducible half of the load harness: the report is a pure function
// of (g, cfg, policy, plan), byte for byte, where the wall-clock driver
// in cmd/subtrav-load measures the real service and cannot promise
// identical bytes. Keys are vertex IDs, so plan.Config.NumKeys must
// not exceed g's vertex count.
//
// The client side of the model is the simplest one: a rejection is
// final. A full pool admits one query per slot that frees, whoever
// asks, so the live driver's jittered retries decide which event gets
// the slot, not how many are served.
func Replay(g *graph.Graph, cfg sim.Config, policy string, plan *Plan) (*Report, sim.Result, error) {
	tasks, err := plan.Tasks()
	if err != nil {
		return nil, sim.Result{}, err
	}
	c, err := sim.NewCluster(g, cfg)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var s sched.Scheduler
	switch policy {
	case PolicyBaseline:
		s = sched.NewBaseline(plan.Config.Seed)
	case PolicySCH:
		scorer, err := affinity.NewScorer(g, c.Signatures(), c.Clock(), affinity.DefaultConfig())
		if err != nil {
			return nil, sim.Result{}, err
		}
		s, err = sched.NewAuction(scorer, sched.AuctionConfig{NumUnits: c.NumUnits(), WorkloadAware: true})
		if err != nil {
			return nil, sim.Result{}, err
		}
	default:
		return nil, sim.Result{}, fmt.Errorf("loadgen: unknown policy %q", policy)
	}

	// Every task resolves into exactly one span, whatever its outcome,
	// so a ring as long as the plan holds the whole run.
	ring := obs.NewRing(len(tasks))
	c.SetTrace(ring)
	res, err := c.Run(s, tasks)
	if err != nil {
		return nil, sim.Result{}, err
	}
	spans := ring.Last(len(tasks))
	outcomes := make([]Outcome, len(spans))
	for i, sp := range spans {
		o := Outcome{Index: int(sp.QueryID), LatencyNanos: sp.EndNanos - sp.SubmitNanos}
		switch sp.Outcome {
		case obs.OutcomeCompleted:
			o.Code = CodeOK
		case obs.OutcomeRejected:
			o.Code = CodeRejected
		case obs.OutcomeTimeout:
			o.Code = CodeTimeout
		default:
			return nil, sim.Result{}, fmt.Errorf("loadgen: task %d resolved as %q", sp.QueryID, sp.Outcome)
		}
		outcomes[i] = o
	}
	rep, err := BuildReport(plan, outcomes)
	if err != nil {
		return nil, sim.Result{}, err
	}
	rep.Policy = policy
	return rep, res, nil
}
