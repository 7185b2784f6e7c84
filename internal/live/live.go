// Package live is the real-concurrency counterpart of internal/sim:
// a goroutine per processing unit, channel-based task queues, a
// semaphore-guarded "shared disk" whose access costs are paid as
// scaled-down sleeps, and the same signature/affinity/scheduler
// machinery as the simulator. It backs the TCP query service
// (internal/service) — the paper's deployment shape, where the
// scheduler and the traversal engines run as one always-on system
// processing a live query stream.
//
// Failure semantics: every admitted query resolves exactly once, as a
// completion (possibly carrying an execution error), a timeout (its
// context expired before execution finished), or — at admission — a
// rejection when the in-flight bound is hit. The partition is recorded
// in metrics.Counters, so at quiescence
// submitted = completed + rejected + timed-out holds exactly.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/fifo"
	"subtrav/internal/graph"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
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
	// BatchWindow is how long the dispatcher waits to accumulate a
	// batch before scheduling it (default 200 µs).
	BatchWindow time.Duration
	// QueueCap bounds each unit's queue (default 64).
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
	// SchedTimeout is the per-round scheduling budget. After
	// DegradeAfter consecutive rounds over budget (or with an injected
	// scheduler fault), the dispatcher degrades to the least-loaded
	// fallback policy for DegradeCooldown rounds — graceful
	// degradation when the auction is stuck or slow. Zero disables
	// degradation.
	SchedTimeout time.Duration
	// DegradeAfter is the consecutive-slow-round threshold (default 3).
	DegradeAfter int
	// DegradeCooldown is how many rounds the fallback stays active
	// once triggered (default 8).
	DegradeCooldown int
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

	// BatchTraversals, when > 1, lets a worker drain up to that many
	// consecutive batchable queries (BFS/SSSP) off its queue and
	// advance them in lockstep, loading each wave-shared record once
	// (traverse.Batch). Per-query results stay identical to
	// independent execution. At most traverse.MaxBatch; 0 or 1
	// disables. Each unit owns a private batch executor, so memory
	// grows by O(BatchTraversals·|V|) per unit in the worst (SSSP)
	// case.
	BatchTraversals int
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
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
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
	if c.TenantShare < 0 {
		return fmt.Errorf("live: TenantShare = %g, want >= 0", c.TenantShare)
	}
	if c.DefaultDeadline < 0 {
		return fmt.Errorf("live: DefaultDeadline = %v, want >= 0", c.DefaultDeadline)
	}
	if c.SchedTimeout < 0 {
		return fmt.Errorf("live: SchedTimeout = %v, want >= 0", c.SchedTimeout)
	}
	if c.DegradeAfter == 0 {
		c.DegradeAfter = 3
	}
	if c.DegradeCooldown == 0 {
		c.DegradeCooldown = 8
	}
	if c.DegradeAfter < 1 || c.DegradeCooldown < 1 {
		return fmt.Errorf("live: DegradeAfter = %d, DegradeCooldown = %d, want >= 1", c.DegradeAfter, c.DegradeCooldown)
	}
	if c.TraceBuffer < 0 {
		return fmt.Errorf("live: TraceBuffer = %d, want >= 0", c.TraceBuffer)
	}
	if c.BatchTraversals < 0 || c.BatchTraversals > traverse.MaxBatch {
		return fmt.Errorf("live: BatchTraversals = %d, want [0, %d]", c.BatchTraversals, traverse.MaxBatch)
	}
	zero := sim.CostModel{}
	if c.Cost == zero {
		c.Cost = sim.DefaultCostModel()
	}
	return c.Cost.Validate()
}

// Response is the outcome of one submitted query.
type Response struct {
	Result traverse.Result
	// Unit is the processing unit that executed the query, or -1 if
	// the query was resolved (e.g. timed out) before placement.
	Unit int32
	// Wait and Exec are the real queueing and execution durations.
	Wait time.Duration
	Exec time.Duration
	Err  error
}

// task is one in-flight query.
type task struct {
	id      int64
	query   traverse.Query
	ctx     context.Context
	cancel  context.CancelFunc
	submit  time.Time
	started time.Time
	done    chan Response
	// tenant is the submitting tenant's name ("" when untenanted);
	// tstate is its admission bucket, resolved once at admission so
	// finish never re-hits the map.
	tenant string
	tstate *tenantState
	// span is the task's trace span (nil when tracing is off). It is
	// only ever written by the goroutine that currently owns the task
	// — submitter, then dispatcher, then worker — with ownership
	// handed over through channels, so access is race-free.
	span *obs.Span
	// claimed guarantees exactly-once resolution: whichever of the
	// dispatcher, a worker, or the shutdown drain claims the task
	// delivers its response; everyone else backs off.
	claimed atomic.Bool
}

// ErrClosed is returned by Submit after Close (and by the second and
// later Close calls).
var ErrClosed = errors.New("live: runtime closed")

// Runtime is a running live deployment. Create with New, submit with
// Submit or Do, stop with Close.
type Runtime struct {
	g    *graph.Graph
	cfg  Config
	sigs *signature.Table

	units    []*liveUnit
	diskSlot chan struct{}
	// wsPool lends traversal workspaces to workers, one per executing
	// query, so steady-state traversals reuse dense scratch instead of
	// allocating per-query maps.
	wsPool *traverse.Pool

	mu      sync.Mutex
	sched   sched.Scheduler
	pending fifo.Queue[*task]
	// adm decides admission and counts what is in flight, globally and
	// per tenant bucket; tenants holds each bucket's metric series at
	// the bucket's index.
	adm     *sim.Admission
	tenants []*tenantState
	closed  bool
	nextID  int64

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	counters metrics.Counters
	obs      *runtimeObs

	// Degradation state, owned by the dispatcher goroutine.
	fallback    sched.Scheduler
	slowRounds  int
	degradeLeft int

	// Per-round scratch, owned by the dispatcher goroutine and sized
	// for a full round of NumUnits tasks: the batch taken off the
	// pending pool, the scheduler's view of it (stasks[i] is
	// &staskBuf[i]) and of the units, and the imbalance tally.
	batch      []*task
	staskBuf   []sched.Task
	stasks     []*sched.Task
	unitStates []sched.UnitState
	loads      []int
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
		sigs:     sigs,
		sched:    scheduler,
		adm:      sim.NewAdmission(cfg.MaxPending, cfg.TenantShare),
		fallback: sched.NewLeastLoaded(),
		diskSlot: make(chan struct{}, max(cfg.Cost.Disk.Channels, 1)),
		wsPool:   traverse.NewPool(g.NumVertices()),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),

		batch:    make([]*task, 0, cfg.NumUnits),
		staskBuf: make([]sched.Task, cfg.NumUnits),
		stasks:   make([]*sched.Task, cfg.NumUnits),
		loads:    make([]int, cfg.NumUnits),
	}
	for i := range r.stasks {
		r.stasks[i] = &r.staskBuf[i]
	}
	r.obs = newRuntimeObs(r, cfg.TraceBuffer)
	if reg, ok := scheduler.(schedulerRegistrar); ok {
		reg.Register(r.obs.reg)
	}
	for i := 0; i < cfg.NumUnits; i++ {
		u := &liveUnit{
			id:     int32(i),
			buffer: cache.New(cfg.MemoryPerUnit),
			queue:  make(chan *task, cfg.QueueCap),
		}
		if cfg.BatchTraversals > 1 {
			u.batch = traverse.NewBatch(g.NumVertices())
		}
		r.obs.wireUnit(u)
		r.units = append(r.units, u)
		r.unitStates = append(r.unitStates, u)
		r.wg.Add(1)
		go r.worker(u)
	}
	r.wg.Add(1)
	go r.dispatcher()
	return r, nil
}

// Completed returns the number of finished queries so far (including
// executions that returned an error; excluding timeouts/rejections).
func (r *Runtime) Completed() int64 { return r.counters.Completed.Load() }

// Metrics snapshots the query-lifecycle counters.
func (r *Runtime) Metrics() metrics.Snapshot { return r.counters.Snapshot() }

// InFlight returns the number of admitted-but-unresolved queries.
// Always <= Config.MaxPending.
func (r *Runtime) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.adm.InFlight()
}

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
	for i, u := range r.units {
		out[i] = UnitStats{
			Unit:        u.id,
			Queued:      u.QueueLen(),
			Busy:        u.Busy(),
			Completed:   int(u.completed.Load()),
			CacheHits:   u.cacheCounters.hits.Value(),
			CacheMisses: u.cacheCounters.misses.Value(),
		}
	}
	return out
}

// Close drains in-flight work and stops all goroutines. Pending
// queries are still executed; Submit after Close fails with
// ErrClosed. The first call returns nil; concurrent or repeated calls
// wait for the same drain and return ErrClosed.
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
