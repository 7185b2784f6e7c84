package live

import (
	"fmt"
	"time"

	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/sim"
)

// liveUnit is what one worker goroutine keeps beside the lifecycle's
// queue for its unit.
type liveUnit struct {
	id     int32
	buffer *cache.Cache // worker goroutine only

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
// next query, executes it, and completes it, sleeping while the queue
// is empty until a round wakes it — or, once the dispatcher has
// drained, exits.
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
		// failing (Err) unit. A query whose deadline passes during the
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
			r.complete(u, fmt.Errorf("live: unit %d: %w", u.id, fault.Err), time.Now())
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

// run executes members, the one query Dequeue returned, and resolves
// it. The query runs on a pooled workspace, back in the pool once its
// trace has been charged and signed; its Result is cloned before it
// escapes into the Response.
func (r *Runtime) run(u *liveUnit, members []*task) {
	ws := r.wsPool.Get()
	defer r.wsPool.Put(ws)
	replay, err := sim.Execute(r.g, ws, nil, members)
	if err == nil {
		var timedOut bool
		if timedOut, err = r.charge(u, members[0], replay); timedOut {
			return
		}
	}
	r.complete(u, err, time.Now())
}

// complete finishes u's executing query at now through the lifecycle,
// signs it outside r.mu, and delivers its response. A failed execution
// (err set) completes with the error and signs nothing.
func (r *Runtime) complete(u *liveUnit, err error, now time.Time) {
	r.mu.Lock()
	members := r.life.Complete(int(u.id), now.UnixNano())
	r.madeRoom(len(members))
	r.mu.Unlock()
	if err == nil {
		r.life.Sign(int(u.id), now.UnixNano(), members)
	}
	for _, t := range members {
		r.resolve(t, false, err, now.UnixNano())
	}
}
