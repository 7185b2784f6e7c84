package live

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// completionWindow caps how many completion times a unit remembers for
// CompletedSince: 512 KiB per unit for the life of an always-on
// service instead of 8 B per query served.
const completionWindow = 1 << 16

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

	// cacheCounters shadow the buffer's stats atomically (advanced by
	// charge) so Stats and /metrics can read them while hot.
	cacheCounters *unitCounters

	// completions is a ring of the unit's latest completion times (unix
	// nanos, ascending from the oldest), guarded by mu: it grows on
	// demand to completionWindow entries, after which each completion
	// overwrites the oldest. completed is the exact lifetime count
	// (written under mu), which puts the oldest entry at
	// completed % len(completions).
	mu          sync.Mutex
	completions []int64
	completed   atomic.Int64
}

var _ sched.UnitState = (*liveUnit)(nil)

// QueueLen implements sched.UnitState.
func (u *liveUnit) QueueLen() int { return int(u.queued.Load()) }

// Busy implements sched.UnitState.
func (u *liveUnit) Busy() bool { return u.busy.Load() }

// CompletedSince implements affinity.UnitView. It is exact while t
// falls inside the completion window and saturates at
// completionWindow for older t. Saturation is invisible to the
// scheduler: the count only feeds affinity's churn decay
// exp(-ChurnScale·n·AvgSubgraphBytes/M), and at the default 256 KiB
// footprint 65 536 completions are 16 GiB churned through the buffer,
// which pushes every score under the default η = 0.01 for any
// per-unit budget M up to 3.4 GiB — the (task, unit) edge is already
// dropped, and a larger n cannot drop it twice.
func (u *liveUnit) CompletedSince(t int64) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := len(u.completions)
	if n == 0 {
		return 0
	}
	oldest := int(u.completed.Load() % int64(n))
	idx := sort.Search(n, func(i int) bool { return u.completions[(oldest+i)%n] >= t })
	return n - idx
}

// recordCompletion notes one finished query at unix time now.
func (u *liveUnit) recordCompletion(now int64) {
	u.mu.Lock()
	if len(u.completions) < completionWindow {
		u.completions = append(u.completions, now)
	} else {
		u.completions[u.completed.Load()%completionWindow] = now
	}
	u.completed.Add(1)
	u.mu.Unlock()
}

// MemoryBudget implements affinity.UnitView.
func (u *liveUnit) MemoryBudget() int64 { return u.buffer.Budget() }

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
			r.run(u, members)
			if carry != nil {
				r.run(u, []*task{carry})
			}
			continue
		}
		r.run(u, []*task{t})
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

// run executes members — one query, or a drained run of batchable ones
// — and resolves every one of them. A solo query is a batch of one:
// only the kernel step depends on the width (a pooled workspace at
// width one and for non-batchable ops; above, the unit's lockstep
// traverse.Batch, whose shared wave trace loads each wave-shared
// record once), and per-member results are identical to independent
// execution. The dequeue expiry check is repeated here because the
// non-batchable task carried out of drainBatch waited behind a whole
// batch execution first.
func (r *Runtime) run(u *liveUnit, members []*task) {
	live := members[:0]
	for _, t := range members {
		if !r.dropAtDequeue(u, t) {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}

	u.busy.Store(true)
	started := time.Now()
	for _, t := range live {
		t.started = started
		if t.span != nil {
			t.span.StartNanos = started.UnixNano()
		}
	}

	var (
		soloResult [1]traverse.Result
		soloTrace  [1]*traverse.Trace
		results    []traverse.Result
		traces     []*traverse.Trace
		replay     *traverse.Trace // the trace the unit pays for
		err        error
	)
	// Disk waits run under the member's own context at width one — an
	// expired deadline frees the unit within one access-service time.
	// Above, no single member's expiry may abort a wait its peers are
	// paying for too, and Close drains before it stops anything, so
	// there is no context to wait under.
	ctx := context.Background()
	if len(live) == 1 {
		t := live[0]
		ctx = t.ctx
		// The workspace goes back to the pool when this execution's
		// trace has been fully charged; the Result is cloned before it
		// escapes into the Response, which outlives the checkout.
		ws := r.wsPool.Get()
		defer r.wsPool.Put(ws)
		soloResult[0], replay, err = traverse.ExecuteIn(ws, r.g, t.query)
		soloTrace[0] = replay
		results, traces = soloResult[:], soloTrace[:]
	} else {
		queries := make([]traverse.Query, len(live))
		for i, t := range live {
			queries[i] = t.query
		}
		results, traces, replay, err = u.batch.Run(r.g, queries)
	}
	if err == nil {
		err = r.charge(u, ctx, replay, live, started)
	}

	// A wait that ended with a context error is a timeout; everything
	// else, a failed execution included, is a completion the unit is
	// credited with.
	o := outcomeCompleted
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		o = outcomeTimedOut
	}
	u.busy.Store(false)
	now := time.Now()
	for i, t := range live {
		if t == nil {
			continue // resolved mid-charge
		}
		resp := Response{Unit: u.id, Err: err, Wait: started.Sub(t.submit), Exec: now.Sub(started)}
		if err == nil {
			r.sigs.RecordTrace(traces[i].Touched, u.id, now.UnixNano())
			resp.Result = results[i].Clone()
		}
		if o == outcomeCompleted {
			u.recordCompletion(now.UnixNano())
		}
		r.finish(t, resp, o)
	}
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
