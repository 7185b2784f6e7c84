package sim

import (
	"fmt"

	"subtrav/internal/cache"
	"subtrav/internal/fifo"
	"subtrav/internal/graph"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// Cluster is one simulated shared-disk deployment. Create it with
// NewCluster, wire a scheduler (whose affinity scorer should read the
// cluster's Signatures and Clock), then drive it with Run. A cluster
// instance runs one workload; use Reset between repetitions.
type Cluster struct {
	g     *graph.Graph
	cfg   Config
	clock *signature.ManualClock
	sigs  *signature.Table
	disk  *storage.Disk
	units []*unit
	// unitStates is units as a scheduler is shown them.
	unitStates []sched.UnitState

	events eventHeap
	seq    int64
	// adm admits or rejects each arrival and counts what is in flight;
	// pending is the admitted pool in front of the scheduler.
	adm     *Admission
	pending fifo.Queue[*taskState]
	// round is scratch for the task list of one scheduling round; it is
	// the scheduler's only for the length of its Assign call.
	round []*sched.Task
	// sched is the active scheduler for the duration of Run.
	sched sched.Scheduler
	// trace receives one span per resolved task, whatever the outcome
	// (nil: disabled).
	trace *obs.Ring

	// OnComplete, when set, receives every finished task and its
	// semantic result (used by examples and correctness tests).
	OnComplete func(*sched.Task, traverse.Result)

	// run accounting
	life         metrics.Snapshot
	firstArrival int64
	lastComplete int64
	visitedTotal int64
	latencies    []int64
	execNanos    []int64
}

// NewCluster builds a cluster over the given graph.
func NewCluster(g *graph.Graph, cfg Config) (*Cluster, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: graph is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		g:            g,
		cfg:          cfg,
		clock:        &signature.ManualClock{},
		sigs:         signature.NewTable(cfg.SignatureCap),
		disk:         storage.NewDisk(cfg.Cost.Disk),
		adm:          NewAdmission(cfg.MaxPending, cfg.TenantShare),
		firstArrival: -1,
	}
	// All units borrow one dense traversal scratch: the event loop
	// executes kernels one at a time, and sharing keeps cluster memory
	// at O(|V|) instead of O(P·|V|) (the paper-scale graph is 11.3M
	// vertices). Traces and results live in per-unit buffers. The
	// batch scratch is shared the same way when lockstep batching is
	// on (its per-slot SSSP maps are the O(K·|V|) part of the bill).
	scratch := traverse.NewScratch(g.NumVertices())
	var batchScratch *traverse.BatchScratch
	if cfg.BatchTraversals > 1 {
		batchScratch = traverse.NewBatchScratch(g.NumVertices())
	}
	for i := 0; i < cfg.NumUnits; i++ {
		speed := 1.0
		if cfg.SpeedFactors != nil {
			speed = cfg.SpeedFactors[i]
		}
		u := &unit{
			id:     int32(i),
			buffer: cache.New(cfg.MemoryPerUnit),
			ws:     traverse.NewWorkspaceWithScratch(scratch),
			speed:  speed,
		}
		if batchScratch != nil {
			u.batch = traverse.NewBatchWithScratch(batchScratch)
		}
		c.units = append(c.units, u)
		c.unitStates = append(c.unitStates, u)
	}
	return c, nil
}

// Graph returns the cluster's graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Signatures returns the vertex visit-signature table; affinity
// scorers read it.
func (c *Cluster) Signatures() *signature.Table { return c.sigs }

// Clock returns the virtual clock; affinity scorers read it.
func (c *Cluster) Clock() signature.Clock { return c.clock }

// NumUnits returns P.
func (c *Cluster) NumUnits() int { return c.cfg.NumUnits }

// SetDiskMetrics mirrors shared-disk activity into m — typically
// storage.NewMetrics(reg) on an obs.Registry — so simulator runs can
// be scraped with the same disk series as the live system. nil
// disables; Reset keeps the wiring.
func (c *Cluster) SetDiskMetrics(m *storage.Metrics) { c.disk.SetMetrics(m) }

// Reset clears all run state — queues, caches, signatures, disk
// occupancy, admission counts and statistics — keeping the
// configuration and the capacity the queues and sample lists grew to,
// so a repetition of the same workload does not grow them again.
func (c *Cluster) Reset() {
	c.clock.Reset() // same clock object: scorers wired to it stay valid
	c.sigs.Reset()
	c.disk.Reset()
	for _, u := range c.units {
		u.buffer = cache.New(c.cfg.MemoryPerUnit)
		u.queue.Reset()
		u.cur = nil
		u.completions = u.completions[:0]
		u.busyNanos = 0
	}
	c.events = c.events[:0]
	c.seq = 0
	c.adm = NewAdmission(c.cfg.MaxPending, c.cfg.TenantShare)
	c.pending.Reset()
	c.life = metrics.Snapshot{}
	c.firstArrival = -1
	c.lastComplete = 0
	c.visitedTotal = 0
	c.latencies = c.latencies[:0]
	c.execNanos = c.execNanos[:0]
}

func (c *Cluster) push(e event) {
	e.seq = c.seq
	c.seq++
	c.events.push(e)
}

// Run injects the given tasks at their Arrival times, drives the
// event loop to completion under the given scheduler, and returns the
// run's measurements.
func (c *Cluster) Run(s sched.Scheduler, tasks []*sched.Task) (Result, error) {
	if s == nil {
		return Result{}, fmt.Errorf("sim: scheduler is required")
	}
	c.sched = s
	defer func() { c.sched = nil }()
	states := make([]taskState, len(tasks))
	for i, t := range tasks {
		if err := t.Query.Validate(c.g); err != nil {
			return Result{}, fmt.Errorf("sim: task %d: %w", t.ID, err)
		}
		if t.Arrival < 0 {
			return Result{}, fmt.Errorf("sim: task %d has negative arrival %d", t.ID, t.Arrival)
		}
		states[i].task = t
		c.push(event{time: t.Arrival, kind: evArrival, task: &states[i]})
	}

	for len(c.events) > 0 {
		e := c.events.pop()
		c.clock.Set(e.time)
		switch e.kind {
		case evArrival:
			if c.firstArrival < 0 || e.time < c.firstArrival {
				c.firstArrival = e.time
			}
			c.arrive(e.task, e.time)
		case evStep:
			c.step(c.units[e.unit], e.time)
		}
	}
	if n := c.pending.Len(); n > 0 {
		return Result{}, fmt.Errorf("sim: %d tasks never dispatched (scheduler stalled)", n)
	}
	// Nothing is in flight any more: let go of what still points into
	// the task slab — the pool's popped prefix, each unit's last
	// members — so that it does not outlive the run.
	c.pending.Reset()
	for _, u := range c.units {
		clear(u.exec.members[:cap(u.exec.members)])
	}
	return c.result(s), nil
}

// dispatch runs scheduling rounds while pending tasks exist and some
// unit is below the dispatch depth target (Figure 6: fetch up to P
// tasks, auction, dispatch to unit queues).
func (c *Cluster) dispatch(s sched.Scheduler, now int64) {
	for c.pending.Len() > 0 && c.hasDispatchRoom() {
		// Leaving the pool, as in the live dispatcher: a task whose
		// deadline passed while it waited is never shown to the
		// scheduler and consumes no unit slot. The popped view stays
		// valid to the end of the round: the pool is only pushed to
		// from the event loop, between rounds.
		states := c.pending.PopN(min(len(c.units), c.pending.Len()))
		if states = c.dropExpired(nil, states, nil, now); len(states) == 0 {
			continue
		}
		tasks := c.round[:0]
		for _, ts := range states {
			tasks = append(tasks, ts.task)
		}
		c.round = tasks

		// The placement detail is only worth collecting for a span; an
		// Explainer's Assign is its AssignExplained minus the detail, so
		// tracing cannot move a placement.
		var placement []int
		var explain []sched.Explain
		if ex, ok := s.(sched.Explainer); ok && c.trace != nil {
			placement, explain = ex.AssignExplained(tasks, c.unitStates)
		} else {
			placement = s.Assign(tasks, c.unitStates)
		}
		// From here on only states, placement and explain are read:
		// starting a task can finish it on the spot and re-enter
		// dispatch, which reuses c.round.
		for i, ts := range states {
			pick := placement[i]
			if pick < 0 || pick >= len(c.units) {
				panic(fmt.Sprintf("sim: scheduler %q placed task %d on unit %d of %d",
					s.Name(), ts.task.ID, pick, len(c.units)))
			}
			u := c.units[pick]
			ts.scheduled = now
			if explain != nil {
				ts.placement = explain[i].Placement
			}
			u.queue.Push(ts)
			if u.cur == nil {
				c.startNext(u, now)
			}
		}
	}
}

func (c *Cluster) hasDispatchRoom() bool {
	for _, u := range c.units {
		if u.effectiveLoad() < c.cfg.MaxQueuePerUnit {
			return true
		}
	}
	return false
}

// startNext pops the unit's FCFS queue — plus, when lockstep batching
// is on, the contiguous run of batchable queries behind a batchable
// head — and begins trace replay. A member whose deadline passed while
// it queued is resolved here, at dequeue, as the live worker resolves
// it: timed out, no execution consumed; the unit moves on down its
// queue until something starts or the queue is empty.
func (c *Cluster) startNext(u *unit, now int64) {
	for u.queue.Len() > 0 {
		members := append(u.exec.members[:0], u.queue.Pop())
		if b := c.cfg.BatchTraversals; b > 1 && u.batch != nil && traverse.Batchable(members[0].task.Query.Op) {
			for len(members) < b && u.queue.Len() > 0 && traverse.Batchable(u.queue.Front().task.Query.Op) {
				members = append(members, u.queue.Pop())
			}
		}
		if members = c.dropExpired(u, members, nil, now); len(members) > 0 {
			c.start(u, members, now)
			return
		}
	}
}

// start begins executing members on u: their traces are computed, and
// the one the unit pays for is replayed from now.
func (c *Cluster) start(u *unit, members []*taskState, now int64) {
	ex := &u.exec
	ex.members, ex.start = members, now
	u.cur = ex

	// The set of records a traversal touches is timing-independent
	// (see package traverse), so the traces are computed here and then
	// replayed against the buffer and shared disk for their cost. The
	// unit's workspace (and batch executor) is recycled per start: by
	// the time this runs, the unit's previous traces and results were
	// fully consumed by complete.
	var (
		soloResult [1]traverse.Result
		soloTrace  [1]*traverse.Trace
		results    []traverse.Result
		traces     []*traverse.Trace
		replay     *traverse.Trace // what the cursor charges
		err        error
	)
	if len(ex.members) == 1 {
		soloResult[0], replay, err = traverse.ExecuteIn(u.ws, c.g, members[0].task.Query)
		soloTrace[0] = replay
		results, traces = soloResult[:], soloTrace[:]
	} else {
		queries := make([]traverse.Query, len(ex.members))
		for i, m := range ex.members {
			queries[i] = m.task.Query
		}
		// The shared wave trace is what a batch actually pays for:
		// each wave-shared record loaded once.
		results, traces, replay, err = u.batch.Run(c.g, queries)
	}
	if err != nil {
		// Queries are validated at Run entry; an error here is a bug.
		panic(fmt.Sprintf("sim: traversal failed mid-run: %v", err))
	}
	for i, m := range ex.members {
		m.result = results[i]
		if c.OnComplete != nil {
			// The callback may retain the result past this unit's next
			// task, which recycles the workspace-owned slices; detach
			// them.
			m.result = m.result.Clone()
		}
		m.trace = traces[i]
	}
	ex.charge = NewChargeCursor(&c.cfg.Cost, u.buffer, u.speed, replay)
	c.step(u, now)
}

// step advances the unit's charge cursor (see ChargeCursor). Buffer
// hits are consumed inline (they touch no shared resource); the first
// miss at the current virtual instant issues one shared-disk read and
// yields, so disk requests across units are serviced in causal order.
//
// Deadlines are checked where the live charge loop checks them: before
// every disk wait and before completion. An expired member resolves at
// once as timed out while the others carry on; when none is left the
// rest of the trace is abandoned and the unit freed.
func (c *Cluster) step(u *unit, now int64) {
	ex := u.cur
	if hitNanos := ex.charge.RunHits(); hitNanos > 0 {
		// Hits consumed virtual time; realign before touching the
		// shared disk so requests are issued in global time order.
		c.push(event{time: now + hitNanos, kind: evStep, unit: u.id})
		return
	}
	if ex.members = c.dropExpired(u, ex.members, ex, now); len(ex.members) == 0 {
		c.release(u, now)
		return
	}
	if ex.charge.Done() {
		c.complete(u, now)
		return
	}
	a := ex.charge.Miss()
	done := c.disk.ReadPart(now, int64(a.Bytes), c.g.Partition(a.Vertex))
	// The one thing this executor does per access that the live
	// runtime does not: the paper updates L(v) as vertices are
	// visited, so a miss signs the vertex immediately — concurrent
	// scheduling rounds can already see the partially-built affinity.
	// (The live runtime signs only at completion, as complete does
	// here too; every other per-access rule is the cursor's.)
	c.sigs.Record(a.Vertex, u.id, now)
	c.push(event{time: done + ex.charge.Fill(), kind: evStep, unit: u.id})
}

// arrive puts one arrival to admission: an admitted task joins the
// pending pool, a rejected one is resolved on the spot — counted,
// traced, never seen by the scheduler.
func (c *Cluster) arrive(ts *taskState, now int64) {
	c.life.Submitted++
	if c.adm.Admit(c.adm.Tenant(ts.task.Tenant)) != Admitted {
		c.life.Rejected++
		c.emit(obs.OutcomeRejected, now, nil, ts, nil)
		return
	}
	c.pending.Push(ts)
	c.dispatch(c.sched, now)
}

// expired reports whether t's deadline has passed at now.
func expired(t *sched.Task, now int64) bool { return t.Deadline > 0 && now >= t.Deadline }

// dropExpired resolves as timed out every member whose deadline has
// passed at now and returns the others, compacted in place. u is the
// unit they were placed on, nil for tasks leaving the pending pool; ex
// is nil before execution.
func (c *Cluster) dropExpired(u *unit, members []*taskState, ex *execState, now int64) []*taskState {
	live := members[:0]
	for _, ts := range members {
		if expired(ts.task, now) {
			c.timeOut(now, u, ts, ex)
			continue
		}
		live = append(live, ts)
	}
	return live
}

// timeOut resolves an admitted task as timed out at now (see emit for
// u and ex). Nothing else records it: no signature in L(v), no
// completion credited to a unit, no latency sample.
func (c *Cluster) timeOut(now int64, u *unit, ts *taskState, ex *execState) {
	c.life.TimedOut++
	c.adm.Release(c.adm.Tenant(ts.task.Tenant))
	c.emit(obs.OutcomeTimeout, now, u, ts, ex)
}

// emit appends ts's trace span for a resolution at now, with the
// phases defined as live.finish defines them. u and ex say how far the
// task got: u is nil before placement (the span's Unit is -1), ex is
// nil before execution. An executing task's span carries the charge's
// hit, miss and byte counts so far — the whole batch's joint counts,
// as the live runtime reports them.
func (c *Cluster) emit(outcome string, now int64, u *unit, ts *taskState, ex *execState) {
	if c.trace == nil {
		return
	}
	t := ts.task
	s := obs.Span{
		QueryID:     t.ID,
		Op:          t.Query.Op.String(),
		Tenant:      t.Tenant,
		Start:       int32(t.Query.Start),
		SubmitNanos: t.Arrival,
		EndNanos:    now,
		Unit:        -1,
		WaitNanos:   now - t.Arrival,
		Outcome:     outcome,
	}
	if u != nil {
		s.Unit = u.id
		s.ScheduleNanos = ts.scheduled
		s.Placement = ts.placement
	}
	if ex != nil {
		s.StartNanos = ex.start
		s.WaitNanos = ex.start - t.Arrival
		s.ExecNanos = now - ex.start
		ex.charge.FillSpan(&s)
	}
	c.trace.Append(s)
}

// complete finishes every member of the unit's current batch: visit
// signatures are recorded for each member's touched vertices
// (L(v) ← L(v) ∪ (t, p)), run statistics are updated per member, and
// the unit is released.
func (c *Cluster) complete(u *unit, now int64) {
	ex := u.cur
	for _, ts := range ex.members {
		c.sigs.RecordTrace(ts.trace.Touched, u.id, now)
		u.completions = append(u.completions, now)
		c.life.Completed++
		c.adm.Release(c.adm.Tenant(ts.task.Tenant))
		c.visitedTotal += int64(ts.result.Visited)
		c.latencies = append(c.latencies, now-ts.task.Arrival)
		c.execNanos = append(c.execNanos, now-ex.start)
		c.emit(obs.OutcomeCompleted, now, u, ts, ex)
		if c.OnComplete != nil {
			c.OnComplete(ts.task, ts.result)
		}
	}
	if now > c.lastComplete {
		c.lastComplete = now
	}
	c.release(u, now)
}

// release frees u once every member of its current execution has
// resolved — completed, or timed out with the trace abandoned — and
// moves on: the next queued task starts, and the room this makes
// admits pending tasks.
func (c *Cluster) release(u *unit, now int64) {
	u.busyNanos += now - u.cur.start
	u.cur = nil
	c.startNext(u, now)
	if c.pending.Len() > 0 && c.sched != nil {
		c.dispatch(c.sched, now)
	}
}
