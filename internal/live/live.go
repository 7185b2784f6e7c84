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
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/graph"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/sim"
	"subtrav/internal/storage"
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

	// CoalesceReads, when true, routes buffer misses through a
	// single-flight fetch table shared by every unit
	// (storage.FetchGroup): concurrent misses on the same record
	// across units collapse into one shared-disk fetch, whose outcome
	// — including an injected fault error — fans out to every waiter.
	// The shared fetch is bound to the runtime's lifetime, so one
	// waiter's cancellation never poisons its peers. Results are
	// unaffected; only disk traffic and timing change.
	CoalesceReads bool
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

// ErrQueueFull is the sentinel wrapped by *RejectedError; test with
// errors.Is(err, ErrQueueFull).
var ErrQueueFull = errors.New("live: queue full")

// RejectedError is returned by Submit when admission control refuses
// a query: the number of admitted-but-unresolved queries reached
// Config.MaxPending. The caller should back off and retry no sooner
// than RetryAfter.
type RejectedError struct {
	// InFlight is the in-flight count observed at rejection (the
	// tenant's own count when TenantLimited, the global count
	// otherwise).
	InFlight int
	// RetryAfter is a load-proportional backoff hint.
	RetryAfter time.Duration
	// TenantLimited marks a rejection by the per-tenant share cap
	// (Config.TenantShare) rather than the global MaxPending bound;
	// Tenant names the capped bucket.
	TenantLimited bool
	Tenant        string
}

func (e *RejectedError) Error() string {
	if e.TenantLimited {
		return fmt.Sprintf("live: tenant %q over share (%d in flight), retry after %v", e.Tenant, e.InFlight, e.RetryAfter)
	}
	return fmt.Sprintf("live: queue full (%d in flight), retry after %v", e.InFlight, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrQueueFull) work.
func (e *RejectedError) Unwrap() error { return ErrQueueFull }

// outcome classifies how a task resolved, for metrics accounting.
type outcome int

const (
	outcomeCompleted outcome = iota
	outcomeTimedOut
)

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

	// fetch is the cross-unit single-flight table (nil unless
	// Config.CoalesceReads). Shared fetches run under fetchCtx — a
	// runtime-lifetime context cancelled by Close after the drain — so
	// no submitter's context can abort a fetch other units are joined
	// to.
	fetch       *storage.FetchGroup
	fetchCtx    context.Context
	fetchCancel context.CancelFunc

	mu       sync.Mutex
	sched    sched.Scheduler
	pending  []*task
	inflight int
	tenants  map[string]*tenantState
	closed   bool
	nextID   int64

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	counters metrics.Counters
	obs      *runtimeObs

	// Degradation state, owned by the dispatcher goroutine.
	fallback    sched.Scheduler
	slowRounds  int
	degradeLeft int
}

// liveUnit is one worker goroutine's state.
type liveUnit struct {
	id     int32
	buffer *cache.Cache // guarded by the worker goroutine only
	queue  chan *task

	queued atomic.Int32
	busy   atomic.Bool

	// batch is the unit's lockstep multi-query executor, nil unless
	// Config.BatchTraversals enables batching. Worker goroutine only.
	batch *traverse.Batch

	// cacheCounters mirror the buffer's activity atomically (via
	// cache.Sinks) so Stats and /metrics can read them while hot.
	cacheCounters *unitCounters

	mu          sync.Mutex
	completions []int64 // unix nanos, ascending
}

var _ sched.UnitState = (*liveUnit)(nil)

// QueueLen implements sched.UnitState.
func (u *liveUnit) QueueLen() int { return int(u.queued.Load()) }

// Busy implements sched.UnitState.
func (u *liveUnit) Busy() bool { return u.busy.Load() }

// CompletedSince implements affinity.UnitView.
func (u *liveUnit) CompletedSince(t int64) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	idx := sort.Search(len(u.completions), func(i int) bool { return u.completions[i] >= t })
	return len(u.completions) - idx
}

// MemoryBudget implements affinity.UnitView.
func (u *liveUnit) MemoryBudget() int64 { return u.buffer.Budget() }

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
		tenants:  make(map[string]*tenantState),
		fallback: sched.NewLeastLoaded(),
		diskSlot: make(chan struct{}, maxInt(cfg.Cost.Disk.Channels, 1)),
		wsPool:   traverse.NewPool(g.NumVertices()),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	// Shared fetches and batch charging outlive any one submitter, so
	// they run under a runtime-lifetime context rather than a caller's.
	r.fetchCtx, r.fetchCancel = context.WithCancel(context.Background())
	r.obs = newRuntimeObs(r, cfg.TraceBuffer)
	if reg, ok := scheduler.(schedulerRegistrar); ok {
		reg.Register(r.obs.reg)
	}
	if cfg.CoalesceReads {
		r.fetch = storage.NewFetchGroup()
		r.fetch.SetMetrics(r.obs.coalescedReads, r.obs.sfWaiters)
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
		u.buffer.SetSinks(r.obs.wireUnit(u))
		r.units = append(r.units, u)
		r.wg.Add(1)
		go r.worker(u)
	}
	r.wg.Add(1)
	go r.dispatcher()
	return r, nil
}

// Signatures returns the visit-signature table (for wiring scorers).
func (r *Runtime) Signatures() *signature.Table { return r.sigs }

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
	return r.inflight
}

// UnitStats is a point-in-time snapshot of one unit's activity.
type UnitStats struct {
	Unit      int32
	Queued    int
	Busy      bool
	Completed int
	// CacheHits and CacheMisses mirror the unit's buffer counters
	// (atomic shadows, safe to read while the runtime is hot).
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
		u.mu.Lock()
		completed := len(u.completions)
		u.mu.Unlock()
		out[i] = UnitStats{
			Unit:        u.id,
			Queued:      u.QueueLen(),
			Busy:        u.Busy(),
			Completed:   completed,
			CacheHits:   u.cacheCounters.hits.Value(),
			CacheMisses: u.cacheCounters.misses.Value(),
		}
	}
	return out
}

// Submit enqueues a query and returns a channel that will receive its
// Response exactly once. Equivalent to SubmitCtx with a background
// context (Config.DefaultDeadline still applies).
func (r *Runtime) Submit(q traverse.Query) (<-chan Response, error) {
	return r.SubmitCtx(context.Background(), q)
}

// SubmitCtx enqueues a query bound to ctx. When ctx expires or is
// cancelled before execution finishes, the query resolves with a
// Response whose Err wraps the context error, its unit is freed for
// other work, and the drop is counted in Metrics().TimedOut. The
// returned channel receives exactly one Response in every case.
//
// If admission control refuses the query (see Config.MaxPending),
// SubmitCtx returns a *RejectedError (errors.Is ErrQueueFull).
func (r *Runtime) SubmitCtx(ctx context.Context, q traverse.Query) (<-chan Response, error) {
	return r.SubmitTenantCtx(ctx, "", q)
}

// SubmitTenantCtx is SubmitCtx with the query attributed to a named
// tenant: the tenant's lifecycle counters and in-flight gauge appear
// on /metrics (label cardinality bounded — see TenantStatsSnapshot),
// its trace spans carry the tenant name, and when Config.TenantShare
// is set the tenant is additionally admission-capped at its share of
// MaxPending (rejections then have TenantLimited set). The empty
// tenant maps to the "default" bucket.
func (r *Runtime) SubmitTenantCtx(ctx context.Context, tenant string, q traverse.Query) (<-chan Response, error) {
	if ctx == nil {
		// A nil ctx means the caller opted out of cancellation
		// entirely (Submit's documented contract): there is no caller
		// context to detach from, so a fresh root is the correct one.
		//lint:allow ctxplumb nil-ctx fallback for the documented Submit contract
		ctx = context.Background()
	}
	if err := q.Validate(r.g); err != nil {
		return nil, err
	}
	var cancel context.CancelFunc
	if r.cfg.DefaultDeadline > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, cancel = context.WithTimeout(ctx, r.cfg.DefaultDeadline)
		}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil, ErrClosed
	}
	r.counters.Submitted.Add(1)
	ts := r.tenantState(tenant)
	ts.submitted.Inc()
	rejected := r.inflight >= r.cfg.MaxPending
	tenantLimited := false
	if !rejected && r.cfg.TenantShare > 0 && r.cfg.TenantShare < 1 {
		limit := int(math.Ceil(r.cfg.TenantShare * float64(r.cfg.MaxPending)))
		if limit < 1 {
			limit = 1
		}
		if ts.inflight >= limit {
			rejected = true
			tenantLimited = true
		}
	}
	if rejected {
		inflight := r.inflight
		if tenantLimited {
			inflight = ts.inflight
		}
		retryAfter := r.cfg.BatchWindow * time.Duration(2+r.inflight/len(r.units))
		r.mu.Unlock()
		r.counters.Rejected.Add(1)
		ts.rejected.Inc()
		if cancel != nil {
			cancel()
		}
		now := time.Now().UnixNano()
		r.obs.ring.Append(obs.Span{
			QueryID: -1, Op: q.Op.String(), Tenant: tenant, Start: int32(q.Start),
			SubmitNanos: now, EndNanos: now, Unit: -1,
			Outcome: obs.OutcomeRejected,
		})
		return nil, &RejectedError{
			InFlight: inflight, RetryAfter: retryAfter,
			TenantLimited: tenantLimited, Tenant: ts.label,
		}
	}
	r.inflight++
	ts.inflight++
	t := &task{
		id:     r.nextID,
		query:  q,
		ctx:    ctx,
		cancel: cancel,
		submit: time.Now(),
		done:   make(chan Response, 1),
		tenant: tenant,
		tstate: ts,
	}
	t.span = r.beginSpan(t)
	r.nextID++
	r.pending = append(r.pending, t)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return t.done, nil
}

// Do submits a query and waits for its response.
func (r *Runtime) Do(q traverse.Query) (Response, error) {
	ch, err := r.Submit(q)
	if err != nil {
		return Response{}, err
	}
	return <-ch, nil
}

// DoCtx submits a query bound to ctx and waits. If ctx ends before
// the runtime resolves the query, DoCtx returns the context error
// immediately; the runtime still resolves (and counts) the abandoned
// query internally when it reaches it.
func (r *Runtime) DoCtx(ctx context.Context, q traverse.Query) (Response, error) {
	ch, err := r.SubmitCtx(ctx, q)
	if err != nil {
		return Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// finish resolves a task exactly once, delivering resp and recording
// the outcome. Returns false if someone else already claimed it.
func (r *Runtime) finish(t *task, resp Response, o outcome) bool {
	if !t.claimed.CompareAndSwap(false, true) {
		return false
	}
	if t.cancel != nil {
		t.cancel()
	}
	r.mu.Lock()
	r.inflight--
	if t.tstate != nil {
		t.tstate.inflight--
	}
	r.mu.Unlock()
	switch o {
	case outcomeTimedOut:
		r.counters.TimedOut.Add(1)
		if t.tstate != nil {
			t.tstate.timedOut.Inc()
		}
	default:
		r.counters.Completed.Add(1)
		if t.tstate != nil {
			t.tstate.completed.Inc()
		}
		if resp.Err != nil {
			r.counters.Failed.Add(1)
		}
	}
	r.obs.waitNanos.Observe(resp.Wait.Nanoseconds())
	r.obs.execNanos.Observe(resp.Exec.Nanoseconds())
	r.obs.latencyNanos.Observe(time.Since(t.submit).Nanoseconds())
	r.finishSpan(t, resp, o)
	t.done <- resp
	return true
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
	// Drained: no worker is executing, so cancelling the fetch context
	// cannot fail a query; it only releases any leaked shared fetch.
	r.fetchCancel()
	return nil
}

// dispatcher batches pending queries and runs scheduling rounds,
// mirroring the Figure 6 flow on wall time.
func (r *Runtime) dispatcher() {
	defer r.wg.Done()
	defer func() {
		// Final drain: schedule whatever is still pending, blocking on
		// saturated queues (workers are still consuming them).
		r.dispatchBatch(true)
		for _, u := range r.units {
			close(u.queue)
		}
	}()
	timer := time.NewTimer(r.cfg.BatchWindow)
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
			// Give the batch window a chance to accumulate peers.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(r.cfg.BatchWindow)
			select {
			case <-timer.C:
			case <-r.stop:
			}
			// Dispatch; when every queue is full, back off for a batch
			// window (or a new wake) and retry rather than blocking.
			for r.dispatchBatch(false) {
				timer.Reset(r.cfg.BatchWindow)
				select {
				case <-r.stop:
					return
				case <-r.wake:
				case <-timer.C:
				}
			}
		}
	}
}

// dispatchBatch assigns up to NumUnits pending tasks per round until
// the pending pool is empty. In non-blocking mode it returns true
// ("blocked") when unit queues are saturated, leaving the unplaced
// tasks at the head of the pending pool.
func (r *Runtime) dispatchBatch(block bool) (blocked bool) {
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return false
		}
		n := len(r.units)
		if n > len(r.pending) {
			n = len(r.pending)
		}
		batch := append([]*task(nil), r.pending[:n]...)
		r.pending = r.pending[n:]
		scheduler := r.sched
		r.mu.Unlock()

		// Resolve tasks whose deadline already expired: their unit
		// slot is never consumed.
		live := batch[:0]
		for _, t := range batch {
			if err := t.ctx.Err(); err != nil {
				r.finish(t, Response{
					Unit: -1,
					Err:  fmt.Errorf("live: dropped before dispatch: %w", err),
					Wait: time.Since(t.submit),
				}, outcomeTimedOut)
				continue
			}
			live = append(live, t)
		}
		if len(live) == 0 {
			continue
		}

		placement := r.schedule(scheduler, live)
		for i, t := range live {
			u := r.units[placement[i]]
			if r.tryEnqueue(u, t) {
				continue
			}
			// Assigned unit saturated: degrade the placement to any
			// unit with room rather than blocking the dispatcher.
			if r.enqueueLeastLoaded(t) {
				continue
			}
			if block {
				u.queued.Add(1)
				u.queue <- t
				continue
			}
			// Every queue is full: push the rest back and back off.
			rest := live[i:]
			r.mu.Lock()
			pending := make([]*task, 0, len(rest)+len(r.pending))
			pending = append(pending, rest...)
			pending = append(pending, r.pending...)
			r.pending = pending
			r.mu.Unlock()
			return true
		}
	}
}

// schedule runs one scheduling round, measuring it against
// SchedTimeout and degrading to the least-loaded fallback after
// repeated overruns or injected scheduler faults. Dispatcher
// goroutine only.
func (r *Runtime) schedule(scheduler sched.Scheduler, batch []*task) []int {
	stasks := make([]*sched.Task, len(batch))
	for i, t := range batch {
		stasks[i] = &sched.Task{ID: t.id, Query: t.query, Arrival: t.submit.UnixNano()}
	}
	units := make([]sched.UnitState, len(r.units))
	for i, u := range r.units {
		units[i] = u
	}

	fault := r.cfg.Faults.Eval(faultpoint.SchedRound)
	if fault.Delay > 0 {
		time.Sleep(fault.Delay) // injected stall: the round really is slow
	}

	degraded := r.degradeLeft > 0 || fault.Err != nil
	start := time.Now()
	var placement []int
	var explain []sched.Explain
	if degraded {
		if r.degradeLeft > 0 {
			r.degradeLeft--
		}
		r.counters.DegradedRounds.Add(1)
		placement = r.fallback.Assign(stasks, units)
	} else if ex, ok := scheduler.(sched.Explainer); ok {
		placement, explain = ex.AssignExplained(stasks, units)
	} else {
		placement = scheduler.Assign(stasks, units)
	}
	elapsed := time.Since(start) + fault.Delay
	r.obs.schedNanos.Observe(elapsed.Nanoseconds())

	// Post-placement load-imbalance factor: max/mean effective unit
	// load (queue + busy + this round's placements). This is the
	// balance half of the balance-affinity tradeoff; the affinity half
	// (hit ratio, win margin) is tracked inside the scheduler.
	loads := make([]int, len(r.units))
	var maxLoad, sumLoad int
	for i, u := range r.units {
		loads[i] = u.QueueLen()
		if u.Busy() {
			loads[i]++
		}
	}
	for _, p := range placement {
		loads[p]++
	}
	for _, l := range loads {
		sumLoad += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	imbalance := 1.0
	if sumLoad > 0 {
		imbalance = float64(maxLoad) * float64(len(loads)) / float64(sumLoad)
	}
	r.obs.imbalance.Set(imbalance)
	r.obs.imbalanceMilli.Observe(int64(imbalance * 1000))

	// Fill the schedule phase of each task's span (dispatcher owns the
	// tasks until they are enqueued, so this is race-free).
	now := start.UnixNano()
	for i, t := range batch {
		s := t.span
		if s == nil {
			continue
		}
		s.ScheduleNanos = now
		s.Unit = int32(placement[i])
		s.QueueLen = r.units[placement[i]].QueueLen()
		s.Degraded = degraded
		s.Imbalance = imbalance
		if explain != nil {
			s.Affinity = explain[i].Affinity
			s.AuctionRounds = explain[i].AuctionRounds
			s.FellBack = explain[i].FellBack
			s.EmptyRow = explain[i].EmptyRow
			s.Preferred = explain[i].Preferred
		}
	}

	if r.cfg.SchedTimeout > 0 {
		if elapsed > r.cfg.SchedTimeout || fault.Err != nil {
			r.slowRounds++
			if r.slowRounds >= r.cfg.DegradeAfter && r.degradeLeft == 0 {
				r.degradeLeft = r.cfg.DegradeCooldown
				r.slowRounds = 0
			}
		} else if !degraded {
			r.slowRounds = 0
		}
	}
	return placement
}

// tryEnqueue attempts a non-blocking enqueue on u.
func (r *Runtime) tryEnqueue(u *liveUnit, t *task) bool {
	u.queued.Add(1)
	select {
	case u.queue <- t:
		return true
	default:
		u.queued.Add(-1)
		return false
	}
}

// enqueueLeastLoaded tries every unit in increasing queue-length
// order. Returns false when all queues are full.
func (r *Runtime) enqueueLeastLoaded(t *task) bool {
	order := make([]int, len(r.units))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return r.units[order[a]].queued.Load() < r.units[order[b]].queued.Load()
	})
	for _, i := range order {
		if r.tryEnqueue(r.units[i], t) {
			return true
		}
	}
	return false
}

// worker executes tasks on one unit, paying scaled access costs. With
// batching enabled it drains runs of consecutive batchable queries off
// the queue and advances them in lockstep.
func (r *Runtime) worker(u *liveUnit) {
	defer r.wg.Done()
	for t := range u.queue {
		u.queued.Add(-1)

		// Injected dequeue fault: a stalled (Delay) or transiently
		// failing (Err) unit. Evaluated once per wake; a batch drained
		// behind this task rides the same evaluation.
		fault := r.cfg.Faults.Eval(faultpoint.Dequeue)
		if fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		if r.dropAtDequeue(u, t) {
			continue
		}
		if fault.Err != nil {
			r.finish(t, Response{
				Unit: u.id,
				Err:  fmt.Errorf("live: unit %d: %w", u.id, fault.Err),
				Wait: time.Since(t.submit),
			}, outcomeCompleted)
			continue
		}

		if u.batch != nil && traverse.Batchable(t.query.Op) {
			members, carry := r.drainBatch(u, t)
			r.runBatch(u, members)
			if carry != nil {
				r.runOne(u, carry)
			}
			continue
		}
		r.runOne(u, t)
	}
}

// dropAtDequeue resolves t as timed out, without consuming execution,
// if its context has already ended, and reports whether it did.
func (r *Runtime) dropAtDequeue(u *liveUnit, t *task) bool {
	err := t.ctx.Err()
	if err == nil {
		return false
	}
	r.finish(t, Response{
		Unit: u.id,
		Err:  fmt.Errorf("live: dropped at dequeue: %w", err),
		Wait: time.Since(t.submit),
	}, outcomeTimedOut)
	return true
}

// runOne executes a single task and resolves it. It repeats the
// dequeue expiry check because not every task reaches it straight off
// the queue: the non-batchable task carried out of drainBatch waited
// behind a whole batch execution first.
func (r *Runtime) runOne(u *liveUnit, t *task) {
	if r.dropAtDequeue(u, t) {
		return
	}
	u.busy.Store(true)
	t.started = time.Now()
	if t.span != nil {
		t.span.StartNanos = t.started.UnixNano()
	}
	resp := r.execute(u, t)
	u.busy.Store(false)
	r.resolve(u, t, resp)
}

// resolve classifies a response, records the unit completion for
// non-timeouts, and finishes the task.
func (r *Runtime) resolve(u *liveUnit, t *task, resp Response) {
	o := outcomeCompleted
	if resp.Err != nil && (errors.Is(resp.Err, context.DeadlineExceeded) || errors.Is(resp.Err, context.Canceled)) {
		o = outcomeTimedOut
	} else {
		now := time.Now().UnixNano()
		u.mu.Lock()
		u.completions = append(u.completions, now)
		u.mu.Unlock()
	}
	r.finish(t, resp, o)
}

// drainBatch pulls up to Config.BatchTraversals-1 more batchable tasks
// off u's queue without blocking, starting from first. A non-batchable
// task ends the run and is returned as carry for ordinary execution
// (FIFO order is preserved: it queued after every member).
func (r *Runtime) drainBatch(u *liveUnit, first *task) (members []*task, carry *task) {
	members = append(members, first)
	for len(members) < r.cfg.BatchTraversals {
		select {
		case t, ok := <-u.queue:
			if !ok {
				return members, nil
			}
			u.queued.Add(-1)
			if !traverse.Batchable(t.query.Op) {
				return members, t
			}
			members = append(members, t)
		default:
			return members, nil
		}
	}
	return members, nil
}

// runBatch advances members' traversals in lockstep (traverse.Batch),
// charging the batch's shared wave trace once — each wave-shared
// record is loaded one time for the whole batch — and resolves every
// member. Per-member results are identical to independent execution.
// A member whose context expires mid-charge resolves immediately as
// timed out while the rest of the batch keeps running; disk charging
// is therefore bound to the runtime's fetch context, not to any single
// member's.
func (r *Runtime) runBatch(u *liveUnit, members []*task) {
	// Members already expired resolve without consuming execution.
	live := members[:0]
	for _, t := range members {
		if !r.dropAtDequeue(u, t) {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		r.runOne(u, live[0])
		return
	}

	u.busy.Store(true)
	defer u.busy.Store(false)
	started := time.Now()
	queries := make([]traverse.Query, len(live))
	for i, t := range live {
		t.started = started
		if t.span != nil {
			t.span.StartNanos = started.UnixNano()
		}
		queries[i] = t.query
	}
	results, traces, shared, err := u.batch.Run(r.g, queries)
	if err != nil {
		for _, t := range live {
			r.resolve(u, t, Response{Unit: u.id, Err: err, Wait: started.Sub(t.submit)})
		}
		return
	}
	for i, t := range live {
		r.obs.recordDirStats(t, u.batch.DirStats(i))
	}

	cost := &r.cfg.Cost
	var inlineNanos int64
	var hits, misses int
	var bytesRead, diskWaitNanos int64
	var fatal error
	alive := len(live)
	resolved := make([]bool, len(live))
	// flushSpan records the batch's shared charge so far as t's
	// execution detail — the disk work really done on its behalf —
	// before t resolves, so expired and failed spans keep their counts.
	flushSpan := func(t *task) {
		if s := t.span; s != nil {
			s.CacheHits = hits
			s.CacheMisses = misses
			s.BytesRead = bytesRead
			s.DiskWaitNanos = diskWaitNanos
		}
	}
	// dropExpired resolves members whose deadline passed mid-charge;
	// the survivors keep the batch going.
	dropExpired := func() {
		for i, t := range live {
			if resolved[i] {
				continue
			}
			if err := t.ctx.Err(); err != nil {
				resolved[i] = true
				alive--
				flushSpan(t)
				r.finish(t, Response{
					Unit: u.id,
					Err:  fmt.Errorf("live: cancelled mid-traversal: %w", err),
					Wait: started.Sub(t.submit),
					Exec: time.Since(started),
				}, outcomeTimedOut)
			}
		}
	}
	for _, a := range shared.Accesses {
		dropExpired()
		if alive == 0 {
			break
		}
		key := liveKey(a)
		if u.buffer.Contains(key) {
			u.buffer.Access(key, int64(a.Bytes))
			hits++
			inlineNanos += cost.MemHitNanos + liveCPU(cost, a)
			continue
		}
		slotWait, err := r.fetchMiss(r.fetchCtx, key, int64(a.Bytes))
		diskWaitNanos += slotWait.Nanoseconds()
		if err != nil {
			fatal = err
			break
		}
		u.buffer.Access(key, int64(a.Bytes))
		misses++
		bytesRead += int64(a.Bytes)
		inlineNanos += liveCPU(cost, a) + int64(cost.CPUMissByteNanos*float64(a.Bytes))
	}
	if fatal == nil && alive > 0 {
		fatal = r.sleepScaledNoSlot(r.fetchCtx, inlineNanos, 0)
	}

	now := time.Now()
	for i, t := range live {
		if resolved[i] {
			continue
		}
		flushSpan(t)
		if fatal != nil {
			r.resolve(u, t, Response{
				Unit: u.id,
				Err:  fmt.Errorf("live: batch charge failed: %w", fatal),
				Wait: started.Sub(t.submit),
				Exec: now.Sub(started),
			})
			continue
		}
		for _, v := range traces[i].Touched {
			r.sigs.Record(v, u.id, now.UnixNano())
		}
		r.resolve(u, t, Response{
			Result: results[i].Clone(),
			Unit:   u.id,
			Wait:   started.Sub(t.submit),
			Exec:   now.Sub(started),
		})
	}
}

// execute runs the traversal and charges its access trace: buffer hits
// accumulate a deferred sleep; misses hold a disk slot for the scaled
// transfer time. Cancellation is observed between accesses and inside
// every scaled sleep, so an expired deadline frees the unit within one
// access-service time.
func (r *Runtime) execute(u *liveUnit, t *task) Response {
	// The workspace is returned to the pool when this execution's trace
	// has been fully charged; the Result is cloned before it escapes
	// into the Response, which outlives the checkout.
	ws := r.wsPool.Get()
	defer r.wsPool.Put(ws)
	result, trace, err := traverse.ExecuteIn(ws, r.g, t.query)
	if err != nil {
		return Response{Unit: u.id, Err: err, Wait: t.started.Sub(t.submit)}
	}
	r.obs.recordDirStats(t, ws.DirStats())
	cancelled := func(err error) Response {
		return Response{
			Unit: u.id,
			Err:  fmt.Errorf("live: cancelled mid-traversal: %w", err),
			Wait: t.started.Sub(t.submit),
			Exec: time.Since(t.started),
		}
	}
	cost := &r.cfg.Cost
	var inlineNanos int64
	var hits, misses int
	var bytesRead, diskWaitNanos int64
	// flushSpan records execution detail gathered so far; called on
	// every exit path so cancelled and failed spans keep their counts.
	flushSpan := func() {
		if s := t.span; s != nil {
			s.CacheHits = hits
			s.CacheMisses = misses
			s.BytesRead = bytesRead
			s.DiskWaitNanos = diskWaitNanos
		}
	}
	defer flushSpan()
	for _, a := range trace.Accesses {
		if err := t.ctx.Err(); err != nil {
			return cancelled(err)
		}
		key := liveKey(a)
		if u.buffer.Contains(key) {
			u.buffer.Access(key, int64(a.Bytes))
			hits++
			inlineNanos += cost.MemHitNanos + liveCPU(cost, a)
			continue
		}
		// Miss: one shared-disk fetch (see fetchMiss). With coalescing
		// on, this may join another unit's in-flight fetch of the same
		// record instead of paying its own.
		slotWait, err := r.fetchMiss(t.ctx, key, int64(a.Bytes))
		diskWaitNanos += slotWait.Nanoseconds()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return cancelled(err)
			}
			return Response{
				Unit: u.id,
				Err:  err,
				Wait: t.started.Sub(t.submit),
				Exec: time.Since(t.started),
			}
		}
		u.buffer.Access(key, int64(a.Bytes))
		misses++
		bytesRead += int64(a.Bytes)
		inlineNanos += liveCPU(cost, a) + int64(cost.CPUMissByteNanos*float64(a.Bytes))
	}
	if err := r.sleepScaledNoSlot(t.ctx, inlineNanos, 0); err != nil {
		return cancelled(err)
	}

	now := time.Now()
	for _, v := range trace.Touched {
		r.sigs.Record(v, u.id, now.UnixNano())
	}
	return Response{
		Result: result.Clone(),
		Unit:   u.id,
		Wait:   t.started.Sub(t.submit),
		Exec:   now.Sub(t.started),
	}
}

// fetchMiss pays for one missed record. Without coalescing it is a
// direct disk fetch under the caller's context. With coalescing
// (Config.CoalesceReads) the miss goes through the single-flight
// table: concurrent misses on the same key across units collapse into
// one fetch, run under the runtime-lifetime fetch context so that no
// waiter's cancellation can abort it for the others; a cancelled
// waiter gets its own context error back while the fetch completes,
// and a fetch failure fans out to every waiter exactly once each.
// slotWait is the wall time blocked before the record was available
// (slot queueing, or the wait on another unit's fetch).
func (r *Runtime) fetchMiss(ctx context.Context, key cache.Key, bytes int64) (slotWait time.Duration, err error) {
	if r.fetch == nil {
		return r.diskFetch(ctx, bytes)
	}
	t0 := time.Now()
	_, err = r.fetch.Do(ctx, key, func() error {
		_, ferr := r.diskFetch(r.fetchCtx, bytes)
		return ferr
	})
	return time.Since(t0), err
}

// diskFetch is one shared-disk read: fault evaluation with one
// internal retry, then a disk slot held for the scaled transfer time
// plus any injected latency spike. A persistent injected error is
// returned wrapped (not a context error); a context error means ctx
// ended first.
func (r *Runtime) diskFetch(ctx context.Context, bytes int64) (time.Duration, error) {
	fault := r.cfg.Faults.Eval(faultpoint.DiskRead)
	if fault.Err != nil {
		r.counters.DiskFaultRetries.Add(1)
		fault = r.cfg.Faults.Eval(faultpoint.DiskRead)
		if fault.Err != nil {
			return 0, fmt.Errorf("live: disk read failed after retry: %w", fault.Err)
		}
	}
	service := r.cfg.Cost.Disk.SeekNanos + storage.TransferNanos(bytes, r.cfg.Cost.Disk.BytesPerSecond)
	return r.sleepScaled(ctx, service, fault.Delay)
}

// sleepScaled holds a disk slot while sleeping the scaled duration
// (plus an injected extra), creating genuine cross-unit contention on
// the shared disk. It returns how long the caller waited for a free
// slot (the live analogue of disk queueing delay) and the context
// error if cancelled first.
func (r *Runtime) sleepScaled(ctx context.Context, virtualNanos int64, extra time.Duration) (time.Duration, error) {
	t0 := time.Now()
	select {
	case r.diskSlot <- struct{}{}:
	case <-ctx.Done():
		wait := time.Since(t0)
		r.obs.diskWaitNanos.Observe(wait.Nanoseconds())
		return wait, ctx.Err()
	}
	wait := time.Since(t0)
	r.obs.diskWaitNanos.Observe(wait.Nanoseconds())
	r.obs.diskSlotsInUse.Add(1)
	defer func() {
		r.obs.diskSlotsInUse.Add(-1)
		<-r.diskSlot
	}()
	return wait, r.sleepScaledNoSlot(ctx, virtualNanos, extra)
}

func (r *Runtime) sleepScaledNoSlot(ctx context.Context, virtualNanos int64, extra time.Duration) error {
	d := time.Duration(float64(virtualNanos)*r.cfg.TimeScale) + extra
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func liveCPU(cost *sim.CostModel, a traverse.Access) int64 {
	return cost.CPUVertexNanos + int64(a.ScannedEdges)*cost.CPUEdgeNanos
}

func liveKey(a traverse.Access) cache.Key {
	return cache.VertexKey(int32(a.Vertex))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
