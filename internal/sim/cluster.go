package sim

import (
	"fmt"

	"subtrav/internal/cache"
	"subtrav/internal/graph"
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
//
// The task lifecycle — admission, rounds, unit queues, deadline drops,
// completion bookkeeping — is the Lifecycle the live runtime drives
// too. What the cluster adds is virtual time: an event heap, the
// shared disk as a virtual-time service queue, the kernels and charge
// stepping, and one thing the live runtime does not do, signing a
// vertex into L(v) on every miss (see step and visits).
type Cluster struct {
	g     *graph.Graph
	cfg   Config
	clock *signature.ManualClock
	sigs  *signature.Table
	// visits logs the per-miss signatures step has not yet written to
	// sigs. They are flushed, in order, before anything reads or writes
	// the table — a round's Assign, a completion's Sign — and before
	// Run returns, so the table every reader sees is the one per-miss
	// Record calls would have left.
	visits signature.Log
	disk   *storage.Disk
	units  []*unit
	life   *Lifecycle[*Job]

	events eventHeap
	seq    int64
	// sched is the active scheduler for the duration of Run.
	sched sched.Scheduler
	// dispatching is set while dispatch runs: a unit that starts and
	// finishes at one instant releases into its rounds, not a new one.
	dispatching bool
	// trace receives one span per resolved task, whatever the outcome
	// (nil: disabled).
	trace *obs.Ring

	// OnComplete, when set, receives every finished task and its
	// semantic result (used by examples and correctness tests).
	OnComplete func(*sched.Task, traverse.Result)

	// run accounting
	firstArrival int64
	lastComplete int64
	visitedTotal int64
	latencies    []int64
	execNanos    []int64
}

// unit is what the simulator keeps per processing unit beside the
// lifecycle's queue: a private buffer, the kernels' workspaces, and the
// charge of the members executing.
type unit struct {
	id     int32
	buffer *cache.Cache
	// ws is the unit's reusable traversal workspace. Its private
	// buffers hold the executing members' traces across replay events,
	// so they are only recycled by the unit's own next start — after
	// complete has consumed them. The O(|V|) dense scratch inside is
	// shared cluster-wide: the event loop runs one traversal at a time.
	ws *traverse.Workspace
	// batch is the unit's multi-source executor, nil unless
	// Config.BatchTraversals enables lockstep batches. Its outputs
	// follow the same recycle discipline as ws.
	batch *traverse.Batch
	// speed multiplies the unit's compute and hit costs (1 = nominal).
	speed float64
	// charge is the cursor over the trace the executing members pay
	// for: a solo member's own trace, or the batch's shared wave trace
	// (each wave-shared record loaded once — see traverse.Batch).
	charge    ChargeCursor
	start     int64 // when the executing members began
	busyNanos int64
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
		firstArrival: -1,
	}
	c.life = NewLifecycle[*Job](cfg, 0, c.sigs)
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
	}
	return c, nil
}

// SetTrace makes every task append its Job.Span in virtual nanos to
// ring when it resolves — completed, rejected at admission or timed out
// — the record the live runtime writes (nil disables tracing). Call
// before Run.
func (c *Cluster) SetTrace(ring *obs.Ring) { c.trace = ring }

// Graph returns the cluster's graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Signatures returns the vertex visit-signature table; affinity
// scorers read it.
func (c *Cluster) Signatures() *signature.Table { return c.sigs }

// Clock returns the virtual clock; affinity scorers read it.
func (c *Cluster) Clock() signature.Clock { return c.clock }

// NumUnits returns P.
func (c *Cluster) NumUnits() int { return c.cfg.NumUnits }

// Reset clears all run state — queues, caches, signatures, disk
// occupancy, admission counts and statistics — keeping the
// configuration and the capacity the queues and sample lists grew to,
// so a repetition of the same workload does not grow them again.
func (c *Cluster) Reset() {
	c.clock.Reset() // same clock object: scorers wired to it stay valid
	c.sigs.Reset()
	c.visits.Reset()
	c.disk.Reset()
	c.life.Reset()
	for _, u := range c.units {
		u.buffer = cache.New(c.cfg.MemoryPerUnit)
		u.busyNanos = 0
	}
	c.events = c.events[:0]
	c.seq = 0
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
	defer func() {
		c.sched = nil
		c.sigs.Flush(&c.visits)
	}()
	jobs := make([]Job, len(tasks))
	for i, t := range tasks {
		if err := t.Query.Validate(c.g); err != nil {
			return Result{}, fmt.Errorf("sim: task %d: %w", t.ID, err)
		}
		if t.Arrival < 0 {
			return Result{}, fmt.Errorf("sim: task %d has negative arrival %d", t.ID, t.Arrival)
		}
		jobs[i].Task = t
		c.push(event{time: t.Arrival, kind: evArrival, job: &jobs[i]})
	}

	for len(c.events) > 0 {
		e := c.events.pop()
		c.clock.Set(e.time)
		switch e.kind {
		case evArrival:
			if c.firstArrival < 0 || e.time < c.firstArrival {
				c.firstArrival = e.time
			}
			// An arrival is admitted into the pending pool, or resolved on
			// the spot as rejected: counted, traced, never scheduled.
			if c.life.Arrive(e.job) != Admitted {
				c.emit(obs.OutcomeRejected, e.time, nil, e.job)
				continue
			}
			c.dispatch(e.time)
		case evStep:
			c.step(c.units[e.unit], e.time)
		}
	}
	if n := c.life.Pending(); n > 0 {
		return Result{}, fmt.Errorf("sim: %d tasks never dispatched (scheduler stalled)", n)
	}
	c.life.forget() // nothing in flight may keep the job slab alive
	return c.result(s), nil
}

// dispatch runs scheduling rounds while pending tasks exist and some
// unit is below the dispatch depth target (Figure 6: fetch up to P
// tasks, auction, dispatch to unit queues), starting a unit the moment
// a round gives it work while it idles.
func (c *Cluster) dispatch(now int64) {
	if c.dispatching {
		return
	}
	c.dispatching = true
	for {
		round, tasks, timedOut := c.life.Take(now, nil)
		c.emit(obs.OutcomeTimeout, now, nil, timedOut...)
		if round == nil {
			c.dispatching = false
			return
		}
		c.sigs.Flush(&c.visits) // the scheduler reads L(v)
		placement := Assign(c.sched, round, tasks, c.life.Units())
		for i, j := range round {
			if u, idle := c.life.Place(j, placement[i], now); idle {
				c.startNext(c.units[u], now)
			}
		}
	}
}

// startNext starts idle unit u on its next queued members (see
// Lifecycle.Dequeue): an expired member is resolved at dequeue, as the
// live worker resolves it, and the rest begin trace replay.
func (c *Cluster) startNext(u *unit, now int64) {
	members, timedOut := c.life.Dequeue(int(u.id), now, nil)
	c.emit(obs.OutcomeTimeout, now, nil, timedOut...)
	if members != nil {
		c.start(u, members, now)
	}
}

// start begins executing members on u: their traces are computed, and
// the one the unit pays for is replayed from now.
func (c *Cluster) start(u *unit, members []*Job, now int64) {
	// The set of records a traversal touches is timing-independent
	// (see package traverse), so the traces are computed here and then
	// replayed against the buffer and shared disk for their cost. The
	// unit's workspace (and batch executor) is recycled per start: by
	// the time this runs, the unit's previous traces and results were
	// fully consumed by complete.
	replay, err := Execute(c.g, u.ws, u.batch, members)
	if err != nil {
		// Queries are validated at Run entry; an error here is a bug.
		panic(fmt.Sprintf("sim: traversal failed mid-run: %v", err))
	}
	if c.OnComplete != nil {
		// The callback may retain a result past this unit's next task,
		// which recycles the workspace-owned slices; detach them.
		for _, m := range members {
			m.Result = m.Result.Clone()
		}
	}
	u.charge, u.start = NewChargeCursor(&c.cfg.Cost, u.buffer, u.speed, replay), now
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
	if hitNanos := u.charge.RunHits(); hitNanos > 0 {
		// Hits consumed virtual time; realign before touching the
		// shared disk so requests are issued in global time order.
		c.push(event{time: now + hitNanos, kind: evStep, unit: u.id})
		return
	}
	members, timedOut := c.life.Expire(int(u.id), now, nil)
	c.emit(obs.OutcomeTimeout, now, u, timedOut...)
	if len(members) == 0 {
		c.release(u, now)
		return
	}
	if u.charge.Done() {
		c.complete(u, now)
		return
	}
	a := u.charge.Miss()
	done := c.disk.ReadPart(now, int64(a.Bytes), c.g.Partition(a.Vertex))
	// The one thing this executor does that the live runtime does not:
	// the paper updates L(v) as vertices are visited, so a miss signs
	// the vertex at once — the next scheduling round already sees the
	// partially-built affinity. The signature goes into the visits log,
	// which is flushed before the table is next read or written, so the
	// rounds see exactly what a Record here would have shown them. (The
	// live runtime signs only at completion, as Lifecycle.Sign does here
	// too; every other rule is the lifecycle's or the cursor's.)
	c.visits.Add(a.Vertex, u.id, now)
	c.push(event{time: done + u.charge.Fill(), kind: evStep, unit: u.id})
}

// complete finishes and signs every member of the unit's current
// execution (see Lifecycle.Complete), samples its latency and execution
// time, traces it, and releases the unit.
func (c *Cluster) complete(u *unit, now int64) {
	members := c.life.Complete(int(u.id), now)
	c.sigs.Flush(&c.visits) // the misses before the completion sign first
	c.life.Sign(int(u.id), now, members)
	for _, j := range members {
		c.visitedTotal += int64(j.Result.Visited)
		c.latencies = append(c.latencies, now-j.Task.Arrival)
		c.execNanos = append(c.execNanos, now-u.start)
		c.emit(obs.OutcomeCompleted, now, u, j)
		if c.OnComplete != nil {
			c.OnComplete(j.Task, j.Result)
		}
	}
	if now > c.lastComplete {
		c.lastComplete = now
	}
	c.release(u, now)
}

// release moves u on once every member of its execution has resolved —
// completed, or timed out with the trace abandoned: the next queued
// task starts, and the room this makes dispatches pending tasks.
func (c *Cluster) release(u *unit, now int64) {
	u.busyNanos += now - u.start
	c.startNext(u, now)
	c.dispatch(now)
}

// emit appends each job's trace span for a resolution at now. u is the
// unit the jobs were executing on, nil if they never started: an
// executing job's span carries the charge's hit, miss and byte counts so
// far — the whole batch's joint counts, as the live runtime reports them.
func (c *Cluster) emit(outcome string, now int64, u *unit, jobs ...*Job) {
	if c.trace == nil {
		return
	}
	for _, j := range jobs {
		if u != nil {
			j.Charge = u.charge.Charge
		}
		c.trace.Append(j.Span(outcome, now))
	}
}
