package live

import (
	"context"
	"errors"
	"fmt"
	"time"

	"subtrav/internal/obs"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

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
	if verdict := r.adm.Admit(ts.bucket); verdict != sim.Admitted {
		tenantLimited := verdict == sim.TenantOverShare
		inflight := r.adm.InFlight()
		retryAfter := r.cfg.BatchWindow * time.Duration(2+inflight/len(r.units))
		if tenantLimited {
			inflight = r.adm.TenantInFlight(ts.bucket)
		}
		label := r.adm.Label(ts.bucket)
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
			TenantLimited: tenantLimited, Tenant: label,
		}
	}
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
	r.pending.Push(t)
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
	r.adm.Release(t.tstate.bucket)
	r.mu.Unlock()
	switch o {
	case outcomeTimedOut:
		r.counters.TimedOut.Add(1)
		t.tstate.timedOut.Inc()
	default:
		r.counters.Completed.Add(1)
		t.tstate.completed.Inc()
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
