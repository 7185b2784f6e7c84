package live

import (
	"context"
	"fmt"
	"time"

	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// liveUnit is what one worker goroutine keeps beside the lifecycle's
// queue for its unit.
type liveUnit struct {
	id     int32
	buffer *cache.Cache // worker goroutine only
	// batch is the unit's lockstep executor, nil unless
	// Config.BatchTraversals enables batching. Worker goroutine only.
	batch *traverse.Batch

	// cacheCounters shadow the buffer's stats atomically (advanced by
	// charge) so Stats and /metrics can read them while hot.
	cacheCounters *unitCounters

	// wake tells the idle worker a round placed work on its queue.
	wake chan struct{}
	// timer times the unit's sleeps (sleepScaled). Worker goroutine
	// only.
	timer *time.Timer
}

// worker drives one unit through the lifecycle: it dequeues the unit's
// next members (a run of batchable queries when batching is on),
// executes them, and completes them, sleeping while the queue is empty
// until a round wakes it — or, once the dispatcher has drained, exits.
func (r *Runtime) worker(u *liveUnit) {
	defer r.wg.Done()
	for {
		// Read before the dequeue: once drained is closed no round
		// places anything, so an empty queue then stays empty.
		var drained bool
		select {
		case <-r.drained:
			drained = true
		default:
		}
		// Injected dequeue fault: a stalled (Delay) or transiently
		// failing (Err) unit. A member whose deadline passes during the
		// stall is dropped at the dequeue.
		fault := r.cfg.Faults.Eval(faultpoint.Dequeue)
		if fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		r.mu.Lock()
		members, timedOut := r.life.Dequeue(int(u.id), time.Now().UnixNano(), nil)
		r.madeRoom(len(timedOut))
		r.mu.Unlock()
		for _, t := range timedOut {
			r.timeOut(t, "dropped at dequeue")
		}
		switch {
		case members != nil && fault.Err != nil:
			r.complete(u, members, fmt.Errorf("live: unit %d: %w", u.id, fault.Err), time.Now())
		case members != nil:
			r.run(u, members)
		case drained:
			return
		default:
			select {
			case <-u.wake:
			case <-r.drained:
			}
		}
	}
}

// run executes members — one query, or a dequeued run of batchable
// ones — and resolves every one of them. A solo query is a batch of
// one: only the kernel step depends on the width (a pooled workspace at
// width one and for non-batchable ops; above, the unit's lockstep
// traverse.Batch, whose shared wave trace loads each wave-shared record
// once), and per-member results are identical to independent
// execution.
func (r *Runtime) run(u *liveUnit, members []*task) {
	// Waits run under the member's own context at width one, so an
	// expired deadline ends the wait it expires in and frees the unit.
	// Above, no single member's expiry may abort a wait its peers are
	// paying for too, and Close drains before it stops anything, so
	// there is no context to wait under (charge splits such a wait at
	// every read instead). A solo member runs on a pooled
	// workspace, back in the pool once its trace has been charged and
	// signed; its Result is cloned before it escapes into the Response.
	ctx := context.Background()
	var ws *traverse.Workspace
	if len(members) == 1 {
		ctx = members[0].ctx
		ws = r.wsPool.Get()
		defer r.wsPool.Put(ws)
	}
	replay, err := sim.Execute(r.g, ws, u.batch, members)
	if err == nil {
		members, err = r.charge(u, ctx, replay, members)
	}
	if len(members) > 0 {
		r.complete(u, members, err, time.Now())
	}
}

// complete finishes u's executing members at now through the
// lifecycle, signs them outside r.mu, and delivers their responses. A
// member of a failed execution (err set) completes with the error and
// signs nothing.
func (r *Runtime) complete(u *liveUnit, members []*task, err error, now time.Time) {
	r.mu.Lock()
	members = r.life.Complete(int(u.id), now.UnixNano())
	r.madeRoom(len(members))
	r.mu.Unlock()
	if err == nil {
		r.life.Sign(int(u.id), now.UnixNano(), members)
	}
	for _, t := range members {
		r.resolve(t, false, err, now.UnixNano())
	}
}
