package live

import (
	"sort"
	"strconv"

	"subtrav/internal/metrics"
	"subtrav/internal/obs"
)

// runtimeObs is the runtime's observability surface: an obs.Registry
// with the lifecycle counters, latency histograms and per-unit cache
// counters, plus the optional span ring. Counter and histogram
// updates are single atomic adds, so the surface is always on; only
// span capture is gated (nil ring = off).
type runtimeObs struct {
	reg  *obs.Registry
	ring *obs.Ring

	waitNanos     *obs.Histogram
	execNanos     *obs.Histogram
	latencyNanos  *obs.Histogram
	schedNanos    *obs.Histogram
	diskWaitNanos *obs.Histogram

	// Balance-affinity tradeoff telemetry: the load-imbalance factor
	// (max/mean effective unit load, 1.0 = perfectly balanced, P =
	// everything piled on one unit) as a live gauge plus a milli-unit
	// distribution across rounds. The affinity side (hit ratio, win
	// margin) is registered by the scheduler itself via Register.
	imbalance      *obs.FloatGauge
	imbalanceMilli *obs.Histogram

	// The live runtime's side-channels beside the ledger's fates (see
	// metrics.Snapshot), each written only here.
	failed, degradedRounds, diskFaultRetries *obs.Counter
}

// unitCounters are one unit's cache counters: atomic shadows of the
// buffer's stats, which the worker advances at the end of every charge
// so a /metrics scrape can watch a cache only that goroutine may touch.
type unitCounters struct {
	hits, misses, evictions, bytes *obs.Counter
}

// newRuntimeObs wires the registry for a runtime. Per-unit series are
// registered by wireUnit as units are created.
func newRuntimeObs(r *Runtime, traceBuffer int) *runtimeObs {
	reg := obs.NewRegistry()
	o := &runtimeObs{reg: reg, ring: obs.NewRing(traceBuffer)}

	// Lifecycle counters read straight from the lifecycle's ledger —
	// one source of truth, so the conservation invariant submitted =
	// completed + rejected + timed_out is visible on /metrics at
	// quiescence.
	reg.CounterFunc("subtrav_queries_submitted_total",
		"Valid queries presented for admission.", func() int64 { return r.ledger(-1).Submitted })
	reg.CounterFunc("subtrav_queries_completed_total",
		"Queries whose response was delivered after execution.", func() int64 { return r.ledger(-1).Completed })
	reg.CounterFunc("subtrav_queries_rejected_total",
		"Queries refused at admission (backpressure).", func() int64 { return r.ledger(-1).Rejected })
	reg.CounterFunc("subtrav_queries_timed_out_total",
		"Queries dropped on deadline expiry or cancellation.", func() int64 { return r.ledger(-1).TimedOut })
	o.failed = reg.Counter("subtrav_queries_failed_total",
		"Completed queries whose execution returned an error.")
	o.degradedRounds = reg.Counter("subtrav_sched_degraded_rounds_total",
		"Scheduling rounds that used the least-loaded fallback.")
	o.diskFaultRetries = reg.Counter("subtrav_disk_fault_retries_total",
		"Transient disk errors absorbed by the internal retry.")
	reg.GaugeFunc("subtrav_queries_inflight",
		"Admitted-but-unresolved queries.", func() float64 { return float64(r.InFlight()) })

	o.waitNanos = reg.Histogram("subtrav_query_wait_nanos",
		"Queueing delay from admission to execution start, nanoseconds.")
	o.execNanos = reg.Histogram("subtrav_query_exec_nanos",
		"Execution duration, nanoseconds.")
	o.latencyNanos = reg.Histogram("subtrav_query_latency_nanos",
		"End-to-end latency from admission to resolution, nanoseconds.")
	o.schedNanos = reg.Histogram("subtrav_sched_round_nanos",
		"Scheduling-round duration, nanoseconds.")
	o.diskWaitNanos = reg.Histogram("subtrav_disk_wait_nanos",
		"Wall time spent waiting for a free disk channel, nanoseconds.")
	reg.GaugeFunc("subtrav_disk_slots_in_use",
		"Disk channels currently held by executing queries; always 0 when every unit has a channel, since no slot is taken then.",
		func() float64 { return float64(len(r.diskSlot)) })
	o.imbalance = reg.FloatGauge("subtrav_sched_imbalance_factor",
		"Load-imbalance factor of the latest scheduling round: max/mean effective unit load after placement (1.0 = perfectly balanced, NumUnits = fully piled).")
	o.imbalanceMilli = reg.Histogram("subtrav_sched_imbalance_milli",
		"Distribution of per-round load-imbalance factors, in thousandths (1000 = perfectly balanced).")
	return o
}

// ledger returns the lifecycle's counts of admission bucket b, or at
// b < 0 their total.
func (r *Runtime) ledger(b int) metrics.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b < 0 {
		return r.life.Admission().Counts()
	}
	return r.life.Admission().TenantCounts(b)
}

// registerTenant registers the metric series of the admission bucket
// the last Arrive created, if it did: one per bucket, whose MaxTenants
// cap bounds their cardinality. Caller must hold r.mu.
func (r *Runtime) registerTenant() {
	adm := r.life.Admission()
	if r.tenantSeries == adm.Buckets() {
		return
	}
	b := r.tenantSeries
	r.tenantSeries++
	label := obs.L("tenant", adm.Label(b))
	r.obs.reg.CounterFunc("subtrav_tenant_submitted_total",
		"Queries presented for admission per tenant.", func() int64 { return r.ledger(b).Submitted }, label)
	r.obs.reg.CounterFunc("subtrav_tenant_completed_total",
		"Completed queries per tenant.", func() int64 { return r.ledger(b).Completed }, label)
	r.obs.reg.CounterFunc("subtrav_tenant_rejected_total",
		"Queries refused at admission per tenant (global or per-tenant backpressure).", func() int64 { return r.ledger(b).Rejected }, label)
	r.obs.reg.CounterFunc("subtrav_tenant_timed_out_total",
		"Queries dropped on deadline expiry per tenant.", func() int64 { return r.ledger(b).TimedOut }, label)
	r.obs.reg.GaugeFunc("subtrav_tenant_inflight",
		"Admitted-but-unresolved queries per tenant.",
		func() float64 { return float64(r.ledger(b).InFlight()) }, label)
}

// TenantStats is one tenant's lifecycle accounting snapshot.
type TenantStats struct {
	Tenant    string
	InFlight  int
	Submitted int64
	Completed int64
	Rejected  int64
	TimedOut  int64
}

// TenantStatsSnapshot returns per-tenant accounting, sorted by tenant
// label. Tenants beyond the cardinality cap appear as one "overflow"
// row.
func (r *Runtime) TenantStatsSnapshot() []TenantStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	adm := r.life.Admission()
	out := make([]TenantStats, 0, adm.Buckets())
	for b := range adm.Buckets() {
		c := adm.TenantCounts(b)
		out = append(out, TenantStats{
			Tenant: adm.Label(b), InFlight: int(c.InFlight()),
			Submitted: c.Submitted, Completed: c.Completed, Rejected: c.Rejected, TimedOut: c.TimedOut,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// wireUnit registers one unit's per-unit series.
func (r *Runtime) wireUnit(u *liveUnit) {
	o := r.obs
	label := obs.L("unit", strconv.Itoa(int(u.id)))
	c := &unitCounters{
		hits: o.reg.Counter("subtrav_unit_cache_hits_total",
			"Buffer hits per processing unit.", label),
		misses: o.reg.Counter("subtrav_unit_cache_misses_total",
			"Buffer misses (shared-disk fetches) per processing unit.", label),
		evictions: o.reg.Counter("subtrav_unit_cache_evictions_total",
			"Buffer evictions per processing unit.", label),
		bytes: o.reg.Counter("subtrav_unit_cache_bytes_loaded_total",
			"Bytes fetched into the buffer per processing unit.", label),
	}
	u.cacheCounters = c
	o.reg.GaugeFunc("subtrav_unit_queue_len",
		"Queued tasks per processing unit.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.life.Units()[u.id].QueueLen())
		}, label)
	o.reg.CounterFunc("subtrav_unit_completed_total",
		"Completed queries per processing unit.",
		func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.life.Completed(int(u.id))
		}, label)
	o.reg.GaugeFunc("subtrav_unit_cache_hit_ratio",
		"Lifetime buffer hit ratio per processing unit (0 when idle).",
		func() float64 {
			hits := c.hits.Value()
			total := hits + c.misses.Value()
			if total == 0 {
				return 0
			}
			return float64(hits) / float64(total)
		}, label)
}

// schedulerRegistrar is satisfied by schedulers that expose their own
// metrics (sched.(*Auction).Register).
type schedulerRegistrar interface {
	Register(reg *obs.Registry)
}

// Registry returns the runtime's metrics registry, for mounting on a
// debug endpoint.
func (r *Runtime) Registry() *obs.Registry { return r.obs.reg }

// Trace returns up to n of the most recent completed trace spans in
// append order (oldest first). Empty when tracing is disabled
// (Config.TraceBuffer == 0).
func (r *Runtime) Trace(n int) []obs.Span { return r.obs.ring.Last(n) }

// TraceEnabled reports whether span capture is on.
func (r *Runtime) TraceEnabled() bool { return r.obs.ring != nil }
