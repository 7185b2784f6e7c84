// Package live is the real-concurrency counterpart of internal/sim:
// the simulator's task lifecycle (sim.Lifecycle — admission, rounds,
// unit queues, deadline drops, completion bookkeeping) driven on the
// wall clock by a dispatcher goroutine and a worker goroutine per
// processing unit, a semaphore-guarded "shared disk" whose access
// costs are paid as scaled-down sleeps, and the same
// signature/affinity/scheduler machinery as the simulator. It backs
// the TCP query service (internal/service) — the paper's deployment
// shape, where the scheduler and the traversal engines run as one
// always-on system processing a live query stream.
//
// Failure semantics: every admitted query resolves exactly once, as a
// completion (possibly carrying an execution error), a timeout (its
// context expired before execution finished), or — at admission — a
// rejection when the in-flight bound is hit. The partition is recorded
// once, per tenant and in total, in the lifecycle's sim.Admission
// ledger, so at quiescence submitted = completed + rejected + timed-out
// holds exactly.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/graph"
	"subtrav/internal/metrics"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// Config parameterizes a live runtime.
type Config struct {
	// NumUnits is the processing-unit (worker goroutine) count.
	NumUnits int
	// MemoryPerUnit is each unit's buffer budget (<= 0 unlimited).
	MemoryPerUnit int64
	// Cost is the virtual cost model; access costs are converted to
	// real sleeps through TimeScale.
	Cost sim.CostModel
	// TimeScale compresses virtual costs into real time: a sleep of
	// cost×TimeScale nanoseconds. The default 1e-3 turns a 2 ms
	// virtual disk seek into a 2 µs pause — enough to create real
	// contention without making the service crawl.
	TimeScale float64
	// QueueCap is each unit's dispatch depth and queue bound (default
	// 64): rounds run while some unit holds fewer than QueueCap tasks,
	// queued or executing (the simulator's MaxQueuePerUnit rule), and a
	// task placed on a unit whose queue already holds QueueCap moves to
	// the least-loaded unit, so no queue exceeds QueueCap + NumUnits − 1.
	QueueCap int

	// MaxPending bounds admitted-but-unresolved queries (pending pool
	// plus unit queues plus executing). Submit past the bound returns
	// a *RejectedError carrying a retry-after hint instead of
	// blocking — explicit backpressure. Default 2·NumUnits·QueueCap.
	MaxPending int
	// TenantShare, when in (0, 1), caps each tenant's share of
	// MaxPending: a single tenant may hold at most
	// ceil(TenantShare·MaxPending) in-flight queries (minimum 1), so
	// one flooding tenant cannot consume the whole admission budget
	// and starve the others. 0 (or >= 1) disables per-tenant caps;
	// the global MaxPending bound always applies. Tenants beyond the
	// per-runtime cardinality cap share one overflow quota bucket.
	TenantShare float64
	// DefaultDeadline, when positive, is applied to queries submitted
	// with a context that has no deadline of its own. Zero disables.
	DefaultDeadline time.Duration
	// SchedTimeout is the per-round scheduling budget. After three
	// consecutive rounds over budget (or with an injected scheduler
	// fault), the dispatcher degrades to the least-loaded fallback
	// policy for eight rounds — graceful degradation when the auction
	// is stuck or slow. Zero disables degradation.
	SchedTimeout time.Duration
	// Faults optionally injects deterministic faults into disk
	// accesses, unit dequeues and scheduler rounds (see
	// internal/faultpoint). nil disables injection. Fault delays are
	// wall time, not virtual time.
	Faults *faultpoint.Set

	// TraceBuffer, when positive, captures a per-query trace span for
	// the last TraceBuffer resolved queries into a lock-cheap ring
	// (see Runtime.Trace). Zero disables span capture; the metrics
	// registry (Runtime.Registry) is always on.
	TraceBuffer int
}

func (c *Config) validate() error {
	if c.NumUnits <= 0 {
		return fmt.Errorf("live: NumUnits = %d, want > 0", c.NumUnits)
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1e-3
	}
	if c.TimeScale < 0 {
		return fmt.Errorf("live: TimeScale = %g, want >= 0", c.TimeScale)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.QueueCap < 1 {
		return fmt.Errorf("live: QueueCap = %d, want >= 1", c.QueueCap)
	}
	if c.MaxPending == 0 {
		c.MaxPending = 2 * c.NumUnits * c.QueueCap
	}
	if c.MaxPending < 1 {
		return fmt.Errorf("live: MaxPending = %d, want >= 1", c.MaxPending)
	}
	if c.DefaultDeadline < 0 {
		return fmt.Errorf("live: DefaultDeadline = %v, want >= 0", c.DefaultDeadline)
	}
	if c.SchedTimeout < 0 {
		return fmt.Errorf("live: SchedTimeout = %v, want >= 0", c.SchedTimeout)
	}
	if c.TraceBuffer < 0 {
		return fmt.Errorf("live: TraceBuffer = %d, want >= 0", c.TraceBuffer)
	}
	lc := c.lifecycle()
	err := lc.Validate() // the rest are the simulator's rules and defaults
	c.Cost = lc.Cost
	return err
}

// lifecycle is the configuration of the sim.Lifecycle the runtime
// drives: QueueCap is its dispatch depth, and it sets no batch width,
// so each Dequeue hands a worker one query.
func (c *Config) lifecycle() sim.Config {
	return sim.Config{
		NumUnits: c.NumUnits, MemoryPerUnit: c.MemoryPerUnit, MaxQueuePerUnit: c.QueueCap, Cost: c.Cost,
		MaxPending: c.MaxPending, TenantShare: c.TenantShare,
	}
}

// Response is the outcome of one submitted query.
type Response struct {
	Result traverse.Result
	// Unit is the processing unit that executed the query, or -1 if
	// the query was resolved (e.g. timed out) before placement.
	Unit int32
	// Wait and Exec are the real queueing and execution durations,
	// the query's span's WaitNanos and ExecNanos.
	Wait time.Duration
	Exec time.Duration
	Err  error
}

// task is one in-flight query: its lifecycle record, the scheduler's
// view of it, what resolving it takes, and the span fields only the
// live runtime fills. Each field is written only by the goroutine that
// owns the task — submitter, dispatcher, then worker — which hand it
// over through the lifecycle under mu.
type task struct {
	sim.Job
	stask  sched.Task
	ctx    context.Context
	cancel context.CancelFunc
	// done receives the Response when the task resolves (see
	// SubmitTenantFunc).
	done func(Response)
	// degraded marks placement by a degraded round's fallback;
	// diskWait sums the charge's disk slot waits.
	degraded bool
	diskWait int64
}

// Expired is a live task's expiry signal: its context has ended. It
// receives from Done rather than calling Err, which locks the context:
// every query of a service connection shares one, and a charge asks
// before every read.
func (t *task) Expired(int64) bool { return ctxDone(t.ctx) }

// ctxDone reports whether ctx has ended, without taking its lock.
func ctxDone(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// ErrClosed is returned by Submit after Close (and by the second and
// later Close calls).
var ErrClosed = errors.New("live: runtime closed")

// Runtime is a running live deployment. Create with New, submit with
// Submit or Do, stop with Close.
type Runtime struct {
	g   *graph.Graph
	cfg Config

	units []*liveUnit
	// diskSlot holds one token per disk channel in use, nil when every
	// unit has a channel: a unit's worker has one read in flight at a
	// time, so fewer channels than units is the only way to contend.
	diskSlot chan struct{}
	// wsPool lends traversal workspaces to workers, one per executing
	// query, so steady-state traversals reuse dense scratch instead of
	// allocating per-query maps.
	wsPool *traverse.Pool

	// mu guards life, tenantSeries, closed and nextID. The scheduler
	// runs outside it.
	mu    sync.Mutex
	life  *sim.Lifecycle[*task]
	sched sched.Scheduler
	// tenantSeries counts the admission buckets whose metric series are
	// registered: buckets 0 to tenantSeries − 1.
	tenantSeries int
	closed       bool
	nextID       int64

	// wake tells the dispatcher a task is pending or a unit made room;
	// stop starts the shutdown drain; drained closes when the dispatcher
	// will place nothing more.
	wake    chan struct{}
	stop    chan struct{}
	drained chan struct{}
	wg      sync.WaitGroup

	obs *runtimeObs

	// Degradation state, owned by the dispatcher goroutine.
	fallback    sched.Scheduler
	slowRounds  int
	degradeLeft int

	// Per-round scratch, owned by the dispatcher goroutine: the units
	// as its scheduler sees them (states[i] is &views[i]) and the idle
	// units a round gave work.
	views  []unitView
	states []sched.UnitState
	woken  []int
}

// New starts a runtime: NumUnits worker goroutines plus a dispatcher.
// The scheduler's affinity scorer (if any) must be wired to this
// runtime's signature table; use NewAuction for the common case.
func New(g *graph.Graph, cfg Config, scheduler sched.Scheduler) (*Runtime, error) {
	return newWithSigs(g, cfg, scheduler, signature.NewTable(0))
}

// NewAuction starts a runtime scheduled by the paper's auction policy
// (SCH), with the affinity scorer wired to the runtime's signature
// table and the wall clock.
func NewAuction(g *graph.Graph, cfg Config, affCfg affinity.Config, epsilon float64) (*Runtime, error) {
	if g == nil {
		return nil, fmt.Errorf("live: graph is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sigs := signature.NewTable(0)
	scorer, err := affinity.NewScorer(g, sigs, signature.WallClock{}, affCfg)
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.NewAuction(scorer, sched.AuctionConfig{
		NumUnits:      cfg.NumUnits,
		Epsilon:       epsilon,
		WorkloadAware: true,
	})
	if err != nil {
		return nil, err
	}
	return newWithSigs(g, cfg, scheduler, sigs)
}

func newWithSigs(g *graph.Graph, cfg Config, scheduler sched.Scheduler, sigs *signature.Table) (*Runtime, error) {
	if g == nil {
		return nil, fmt.Errorf("live: graph is required")
	}
	if scheduler == nil {
		return nil, fmt.Errorf("live: scheduler is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		g:        g,
		cfg:      cfg,
		sched:    scheduler,
		life:     sim.NewLifecycle[*task](cfg.lifecycle(), cfg.QueueCap, sigs),
		fallback: sched.NewLeastLoaded(),
		wsPool:   traverse.NewPool(g.NumVertices()),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		drained:  make(chan struct{}),

		views:  make([]unitView, cfg.NumUnits),
		states: make([]sched.UnitState, cfg.NumUnits),
	}
	if cfg.Cost.Disk.Channels < cfg.NumUnits {
		r.diskSlot = make(chan struct{}, max(cfg.Cost.Disk.Channels, 1))
	}
	for i, s := range r.life.Units() {
		r.views[i] = unitView{UnitState: s, mu: &r.mu}
		r.states[i] = &r.views[i]
	}
	r.obs = newRuntimeObs(r, cfg.TraceBuffer)
	if reg, ok := scheduler.(schedulerRegistrar); ok {
		reg.Register(r.obs.reg)
	}
	for i := 0; i < cfg.NumUnits; i++ {
		u := &liveUnit{
			id:     int32(i),
			buffer: cache.New(cfg.MemoryPerUnit),
			wake:   make(chan struct{}, 1),
		}
		r.wireUnit(u)
		r.units = append(r.units, u)
		r.wg.Add(1)
		go r.worker(u)
	}
	r.wg.Add(1)
	go r.dispatcher()
	return r, nil
}

// Completed returns the number of finished queries so far (including
// executions that returned an error; excluding timeouts/rejections).
func (r *Runtime) Completed() int64 { return r.ledger(-1).Completed }

// Metrics snapshots the query-lifecycle counters: the ledger's total
// and the runtime's own side-channels.
func (r *Runtime) Metrics() metrics.Snapshot {
	s := r.ledger(-1)
	s.Failed, s.DegradedRounds, s.DiskFaultRetries = r.obs.failed.Value(), r.obs.degradedRounds.Value(), r.obs.diskFaultRetries.Value()
	return s
}

// InFlight returns the number of admitted-but-unresolved queries.
// Always <= Config.MaxPending.
func (r *Runtime) InFlight() int { return int(r.ledger(-1).InFlight()) }

// UnitStats is a point-in-time snapshot of one unit's activity.
type UnitStats struct {
	Unit      int32
	Queued    int
	Busy      bool
	Completed int
	// CacheHits and CacheMisses are the unit's buffer counters as of
	// its last finished charge (atomic shadows, safe to read while the
	// runtime is hot).
	CacheHits   int64
	CacheMisses int64
}

// HitRate returns CacheHits/(CacheHits+CacheMisses), or 0 when idle.
func (s UnitStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats snapshots every unit's queue depth, busy flag, completion
// count and cache activity.
func (r *Runtime) Stats() []UnitStats {
	out := make([]UnitStats, len(r.units))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.life.Units() {
		out[i] = UnitStats{
			Unit:        int32(i),
			Queued:      s.QueueLen(),
			Busy:        s.Busy(),
			Completed:   int(r.life.Completed(i)),
			CacheHits:   r.units[i].cacheCounters.hits.Value(),
			CacheMisses: r.units[i].cacheCounters.misses.Value(),
		}
	}
	return out
}

// Close drains in-flight work and stops all goroutines. Pending
// queries are still placed, as units make room, and executed; Submit
// after Close fails with ErrClosed. The first call returns nil;
// concurrent or repeated calls wait for the same drain and return
// ErrClosed.
func (r *Runtime) Close() error {
	r.mu.Lock()
	already := r.closed
	r.closed = true
	r.mu.Unlock()
	if already {
		r.wg.Wait()
		return ErrClosed
	}
	close(r.stop)
	r.wg.Wait()
	return nil
}
