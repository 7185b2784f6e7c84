package live

import (
	"sort"
	"strconv"
	"time"

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

	waitNanos      *obs.Histogram
	execNanos      *obs.Histogram
	latencyNanos   *obs.Histogram
	schedNanos     *obs.Histogram
	diskWaitNanos  *obs.Histogram
	diskSlotsInUse *obs.Gauge

	// Balance-affinity tradeoff telemetry: the load-imbalance factor
	// (max/mean effective unit load, 1.0 = perfectly balanced, P =
	// everything piled on one unit) as a live gauge plus a milli-unit
	// distribution across rounds. The affinity side (hit ratio, win
	// margin) is registered by the scheduler itself via Register.
	imbalance      *obs.FloatGauge
	imbalanceMilli *obs.Histogram
}

// tenantState is one tenant bucket's metric series. The bucket itself —
// which names share it, how many of its queries are in flight, whether
// the next one is admitted — is sim.Admission's (Runtime.adm, guarded
// by Runtime.mu), whose MaxTenants cap bounds this series' cardinality.
type tenantState struct {
	// bucket is the tenant's index in Runtime.adm and Runtime.tenants.
	bucket int

	submitted *obs.Counter
	completed *obs.Counter
	rejected  *obs.Counter
	timedOut  *obs.Counter
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

	// Lifecycle counters read straight from metrics.Counters — one
	// source of truth, so the conservation invariant
	// submitted = completed + rejected + timed_out is visible on
	// /metrics at quiescence.
	reg.CounterFunc("subtrav_queries_submitted_total",
		"Valid queries presented for admission.", r.counters.Submitted.Load)
	reg.CounterFunc("subtrav_queries_completed_total",
		"Queries whose response was delivered after execution.", r.counters.Completed.Load)
	reg.CounterFunc("subtrav_queries_rejected_total",
		"Queries refused at admission (backpressure).", r.counters.Rejected.Load)
	reg.CounterFunc("subtrav_queries_timed_out_total",
		"Queries dropped on deadline expiry or cancellation.", r.counters.TimedOut.Load)
	reg.CounterFunc("subtrav_queries_failed_total",
		"Completed queries whose execution returned an error.", r.counters.Failed.Load)
	reg.CounterFunc("subtrav_sched_degraded_rounds_total",
		"Scheduling rounds that used the least-loaded fallback.", r.counters.DegradedRounds.Load)
	reg.CounterFunc("subtrav_disk_fault_retries_total",
		"Transient disk errors absorbed by the internal retry.", r.counters.DiskFaultRetries.Load)
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
	o.diskSlotsInUse = reg.Gauge("subtrav_disk_slots_in_use",
		"Disk channels currently held by executing queries.")
	o.imbalance = reg.FloatGauge("subtrav_sched_imbalance_factor",
		"Load-imbalance factor of the latest scheduling round: max/mean effective unit load after placement (1.0 = perfectly balanced, NumUnits = fully piled).")
	o.imbalanceMilli = reg.Histogram("subtrav_sched_imbalance_milli",
		"Distribution of per-round load-imbalance factors, in thousandths (1000 = perfectly balanced).")
	return o
}

// tenantState returns (registering its series on first sight) the
// bucket a tenant is accounted in. Caller must hold r.mu.
func (r *Runtime) tenantState(tenant string) *tenantState {
	b := r.adm.Tenant(tenant)
	if b < len(r.tenants) {
		return r.tenants[b]
	}
	ts := &tenantState{bucket: b}
	label := obs.L("tenant", r.adm.Label(b))
	ts.submitted = r.obs.reg.Counter("subtrav_tenant_submitted_total",
		"Queries presented for admission per tenant.", label)
	ts.completed = r.obs.reg.Counter("subtrav_tenant_completed_total",
		"Completed queries per tenant.", label)
	ts.rejected = r.obs.reg.Counter("subtrav_tenant_rejected_total",
		"Queries refused at admission per tenant (global or per-tenant backpressure).", label)
	ts.timedOut = r.obs.reg.Counter("subtrav_tenant_timed_out_total",
		"Queries dropped on deadline expiry per tenant.", label)
	r.obs.reg.GaugeFunc("subtrav_tenant_inflight",
		"Admitted-but-unresolved queries per tenant.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.adm.TenantInFlight(b))
		}, label)
	r.tenants = append(r.tenants, ts)
	return ts
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
	out := make([]TenantStats, 0, len(r.tenants))
	for _, ts := range r.tenants {
		out = append(out, TenantStats{
			Tenant:    r.adm.Label(ts.bucket),
			InFlight:  r.adm.TenantInFlight(ts.bucket),
			Submitted: ts.submitted.Value(),
			Completed: ts.completed.Value(),
			Rejected:  ts.rejected.Value(),
			TimedOut:  ts.timedOut.Value(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// wireUnit registers one unit's per-unit series.
func (o *runtimeObs) wireUnit(u *liveUnit) {
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
		func() float64 { return float64(u.QueueLen()) }, label)
	o.reg.CounterFunc("subtrav_unit_completed_total",
		"Completed queries per processing unit.",
		u.completed.Load, label)
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

// beginSpan builds the submit-phase span for an admitted task; nil
// when tracing is off.
func (r *Runtime) beginSpan(t *task) *obs.Span {
	if r.obs.ring == nil {
		return nil
	}
	return &obs.Span{
		QueryID:     t.id,
		Op:          t.query.Op.String(),
		Tenant:      t.tenant,
		Start:       int32(t.query.Start),
		SubmitNanos: t.submit.UnixNano(),
		Unit:        -1,
	}
}

// finishSpan completes a span at resolution and appends it to the
// ring. Called only by the goroutine that won the finish CAS, which
// is also the goroutine that last owned the task, so span writes
// never race.
func (r *Runtime) finishSpan(t *task, resp Response, o outcome) {
	s := t.span
	if s == nil {
		return
	}
	s.EndNanos = time.Now().UnixNano()
	s.Unit = resp.Unit
	s.WaitNanos = resp.Wait.Nanoseconds()
	s.ExecNanos = resp.Exec.Nanoseconds()
	switch {
	case o == outcomeTimedOut:
		s.Outcome = obs.OutcomeTimeout
	case resp.Err != nil:
		s.Outcome = obs.OutcomeFailed
	default:
		s.Outcome = obs.OutcomeCompleted
	}
	if resp.Err != nil {
		s.Err = resp.Err.Error()
	}
	r.obs.ring.Append(*s)
}
