package live

import (
	"context"
	"fmt"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/sim"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// charge makes u pay for replay, the access trace of t, the one query
// it is executing: the shared sim.ChargeCursor consumes buffer hits
// into one deferred sleep and stops at each miss, whose read passes its
// fault evaluation (see diskRead) before the cursor loads the record.
// The wait is split at a read only where another unit can observe the
// split: a disk slot, held for that one read's scaled service time when
// there are fewer channels than units. Otherwise every read's service
// time and injected delay join the hits in the one deferred sleep.
// Waits run under t's own context, so an expired deadline ends the
// wait it expires in and frees the unit.
//
// Cancellation is scoped here and nowhere else. Before each read on the
// slot path, once before the deferred sleep, and after a failed wait,
// t's context is checked: once it has ended, t leaves the lifecycle as
// timed out on the way out — keeping the counts of the work done on its
// behalf so far — and charge reports timedOut. Any other failure (a
// persistent disk fault) is returned, and the deferred time is not
// slept. Either way t leaves with the charge's counts and disk slot
// wait.
//
// However the charge ends, what it did to the buffer is added to the
// unit's cache counters once, on the way out, and so are the zero slot
// waits of the records it read. A non-zero wait is observed at once, so
// subtrav_disk_wait_nanos counts one wait per record read plus one per
// slot wait that ended in no read.
func (r *Runtime) charge(u *liveUnit, t *task, replay *traverse.Trace) (timedOut bool, err error) {
	cur := sim.NewChargeCursor(&r.cfg.Cost, u.buffer, 1, replay)
	evictedBefore := u.buffer.Stats().Evictions
	var diskWaitNanos, zeroWaits int64
	slot := r.diskSlot != nil
	inlineNanos, extra := cur.RunHits(), time.Duration(0)
	for err == nil && !cur.Done() && !(slot && t.Expired(0)) {
		var service int64
		var delay, slotWait time.Duration
		service, delay, err = r.diskRead(int64(cur.Miss().Bytes))
		switch {
		case err == nil && slot:
			slotWait, err = r.diskFetch(u, t.ctx, service, delay)
		case err == nil:
			inlineNanos, extra = inlineNanos+service, extra+delay
		}
		diskWaitNanos += slotWait.Nanoseconds()
		switch {
		case slotWait != 0:
			r.obs.diskWaitNanos.Observe(slotWait.Nanoseconds())
		case err == nil:
			zeroWaits++
		}
		if err == nil {
			inlineNanos += cur.Fill()
			inlineNanos += cur.RunHits()
		}
	}
	timedOut = t.Expired(0)
	if err == nil && !timedOut {
		err = r.sleepScaled(u, t.ctx, inlineNanos, extra)
		timedOut = err != nil && t.Expired(0)
	}
	t.Charge, t.diskWait = cur.Charge, diskWaitNanos
	c := u.cacheCounters
	c.hits.Add(int64(cur.Hits))
	c.misses.Add(int64(cur.Misses))
	c.bytes.Add(cur.BytesRead)
	c.evictions.Add(u.buffer.Stats().Evictions - evictedBefore)
	r.obs.diskWaitNanos.ObserveN(0, zeroWaits)
	if !timedOut {
		return false, err
	}
	r.mu.Lock()
	_, expired := r.life.Expire(int(u.id), time.Now().UnixNano(), nil)
	r.madeRoom(len(expired))
	r.mu.Unlock()
	for _, x := range expired {
		r.timeOut(x, "cancelled mid-traversal")
	}
	return true, nil
}

// diskRead is one shared-disk read's fault evaluation, with one
// internal retry, and its modelled cost: the virtual service time of
// bytes (seek plus transfer) and any injected latency spike. A
// persistent injected error is returned wrapped.
func (r *Runtime) diskRead(bytes int64) (serviceNanos int64, delay time.Duration, err error) {
	fault := r.cfg.Faults.Eval(faultpoint.DiskRead)
	if fault.Err != nil {
		r.obs.diskFaultRetries.Inc()
		fault = r.cfg.Faults.Eval(faultpoint.DiskRead)
		if fault.Err != nil {
			return 0, 0, fmt.Errorf("live: disk read failed after retry: %w", fault.Err)
		}
	}
	return r.cfg.Cost.Disk.SeekNanos + storage.TransferNanos(bytes, r.cfg.Cost.Disk.BytesPerSecond), fault.Delay, nil
}

// diskFetch sleeps one read's scaled service time plus delay as a wait
// of its own, holding a disk slot — there are fewer channels than
// units, so this is genuine cross-unit contention on the shared disk —
// and returns how long the caller waited for a free one (the live
// analogue of disk queueing delay). The wait is exactly zero when a
// slot was free: only a full disk reads the clock and waits under ctx.
// A context error means ctx ended first.
func (r *Runtime) diskFetch(u *liveUnit, ctx context.Context, serviceNanos int64, delay time.Duration) (slotWait time.Duration, err error) {
	select {
	case r.diskSlot <- struct{}{}:
	default:
		t0 := time.Now()
		select {
		case r.diskSlot <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
		}
		slotWait = time.Since(t0)
	}
	if err != nil {
		return slotWait, err
	}
	err = r.sleepScaled(u, ctx, serviceNanos, delay)
	<-r.diskSlot
	return slotWait, err
}

// sleepScaled sleeps virtualNanos compressed by Config.TimeScale, plus
// extra, or until ctx ends, on u's timer: one per unit, reset for each
// sleep, so a sleep allocates nothing.
func (r *Runtime) sleepScaled(u *liveUnit, ctx context.Context, virtualNanos int64, extra time.Duration) error {
	d := time.Duration(float64(virtualNanos)*r.cfg.TimeScale) + extra
	if d <= 0 {
		if ctxDone(ctx) {
			return ctx.Err()
		}
		return nil
	}
	if u.timer == nil {
		u.timer = time.NewTimer(d)
	} else {
		u.timer.Reset(d)
	}
	select {
	case <-u.timer.C:
		return nil
	case <-ctx.Done():
		// Under go 1.22's asynchronous timer channel a timer that has
		// fired holds its value until received; leave the channel
		// empty for the next Reset.
		if !u.timer.Stop() {
			<-u.timer.C
		}
		return ctx.Err()
	}
}
