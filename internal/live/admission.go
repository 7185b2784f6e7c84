package live

import (
	"context"
	"errors"
	"fmt"
	"time"

	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// ErrQueueFull is the sentinel wrapped by *RejectedError; test with
// errors.Is(err, ErrQueueFull).
var ErrQueueFull = errors.New("live: queue full")

// retryUnit is the unit of the retry-after hint a rejection carries:
// the hint is retryUnit × (2 + in-flight queries per unit), so it
// grows with the backlog each unit must drain before a slot frees.
const retryUnit = 200 * time.Microsecond

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
	ch := make(chan Response, 1)
	if err := r.SubmitTenantFunc(ctx, tenant, q, func(resp Response) { ch <- resp }); err != nil {
		return nil, err
	}
	return ch, nil
}

// SubmitTenantFunc is SubmitTenantCtx with the Response handed to done
// instead of a channel: done is called exactly once for an admitted
// query, on the goroutine that resolves it (a worker or the
// dispatcher), so it must return promptly and never block. When
// SubmitTenantFunc returns an error, done is never called.
func (r *Runtime) SubmitTenantFunc(ctx context.Context, tenant string, q traverse.Query, done func(Response)) error {
	if ctx == nil {
		// A nil ctx means the caller opted out of cancellation
		// entirely (Submit's documented contract): there is no caller
		// context to detach from, so a fresh root is the correct one.
		//lint:allow ctxplumb nil-ctx fallback for the documented Submit contract
		ctx = context.Background()
	}
	if err := q.Validate(r.g); err != nil {
		return err
	}
	var cancel context.CancelFunc
	if r.cfg.DefaultDeadline > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, cancel = context.WithTimeout(ctx, r.cfg.DefaultDeadline)
		}
	}
	t := &task{ctx: ctx, cancel: cancel, done: done}
	t.stask = sched.Task{Query: q, Tenant: tenant, Arrival: time.Now().UnixNano()}
	t.Task = &t.stask
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return ErrClosed
	}
	t.stask.ID = r.nextID
	verdict := r.life.Arrive(t)
	r.registerTenant()
	if verdict != sim.Admitted {
		adm := r.life.Admission()
		tenantLimited := verdict == sim.TenantOverShare
		inflight := adm.InFlight()
		retryAfter := retryUnit * time.Duration(2+inflight/len(r.units))
		if tenantLimited {
			inflight = int(adm.TenantCounts(t.Bucket).InFlight())
		}
		label := adm.Label(t.Bucket)
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if r.obs.ring != nil {
			t.stask.ID = -1 // a rejected query gets no ID
			r.obs.ring.Append(t.Span(obs.OutcomeRejected, t.stask.Arrival))
		}
		return &RejectedError{
			InFlight: inflight, RetryAfter: retryAfter,
			TenantLimited: tenantLimited, Tenant: label,
		}
	}
	r.nextID++
	r.mu.Unlock()
	r.wakeDispatcher()
	return nil
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

// resolve delivers the response of a task the lifecycle has resolved
// at end — counted, its admission slot released — timed out, or
// completed with err, and records it: the failure count, the latency
// histograms and the span, whose stamps the response's durations are.
func (r *Runtime) resolve(t *task, timedOut bool, err error, end int64) {
	if t.cancel != nil {
		t.cancel()
	}
	outcome := obs.OutcomeCompleted
	switch {
	case timedOut:
		outcome = obs.OutcomeTimeout
	case err != nil:
		r.obs.failed.Inc()
		outcome = obs.OutcomeFailed
	}
	s := t.Span(outcome, end)
	r.obs.waitNanos.Observe(s.WaitNanos)
	r.obs.execNanos.Observe(s.ExecNanos)
	r.obs.latencyNanos.Observe(end - s.SubmitNanos)
	resp := Response{Unit: t.Unit, Wait: time.Duration(s.WaitNanos), Exec: time.Duration(s.ExecNanos), Err: err}
	if err == nil {
		resp.Result = t.Result.Clone()
	}
	if r.obs.ring != nil {
		s.Degraded, s.DiskWaitNanos = t.degraded, t.diskWait
		if err != nil {
			s.Err = err.Error()
		}
		r.obs.ring.Append(s)
	}
	// The lifecycle's scratch may keep t until it is overwritten; t must
	// not keep the pooled workspace its kernel output lives in.
	t.Result, t.Trace = traverse.Result{}, nil
	t.done(resp)
}

// timeOut resolves t, which the lifecycle timed out at the named stage.
func (r *Runtime) timeOut(t *task, stage string) {
	r.resolve(t, true, fmt.Errorf("live: %s: %w", stage, t.ctx.Err()), time.Now().UnixNano())
}

// wakeDispatcher tells the dispatcher a task is pending or a unit made
// room, without waiting: a wake already queued covers this one.
func (r *Runtime) wakeDispatcher() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// madeRoom wakes the dispatcher when a lifecycle call that took n tasks
// off a unit leaves tasks pending, as the simulator's release does.
// Caller holds r.mu.
func (r *Runtime) madeRoom(n int) {
	if n > 0 && r.life.Pending() > 0 {
		r.wakeDispatcher()
	}
}
