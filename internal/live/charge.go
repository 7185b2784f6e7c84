package live

import (
	"context"
	"fmt"
	"slices"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/sim"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// charge makes u pay for replay, the access trace of the members it is
// executing: the shared sim.ChargeCursor consumes buffer hits into one
// deferred sleep and stops at each miss, whose read passes its fault
// evaluation (see diskRead) before the cursor loads the record. The
// wait is split at a read only where something else can observe the
// split: a disk slot, held for that one read's scaled service time
// when there are fewer channels than units, or a batch peer, which a
// cancelled member must not keep waiting on its behalf. Otherwise — a
// solo member on a disk with a channel per unit — every read's service
// time and injected delay join the hits in the one deferred sleep.
// Waits run under ctx (see run for which one).
//
// Cancellation is scoped here and nowhere else. At each split wait,
// and once before the deferred sleep, the members' own contexts are
// checked: one that has ended leaves the lifecycle at once as timed
// out — its job keeping the counts of the work done on its behalf so
// far — while the survivors carry on. A failed wait is followed by the
// same check, so a wait cut short by a member's own deadline is that
// member's timeout; any other failure (a persistent disk fault) is
// returned for the survivors, which charge returns too, and the
// deferred time is not slept. Every member leaves with the charge's
// counts and disk slot wait on its task.
//
// However the charge ends, what it did to the buffer is added to the
// unit's cache counters once, on the way out, and so are the zero slot
// waits of the records it read. A non-zero wait is observed at once, so
// subtrav_disk_wait_nanos counts one wait per record read plus one per
// slot wait that ended in no read.
func (r *Runtime) charge(u *liveUnit, ctx context.Context, replay *traverse.Trace, members []*task) ([]*task, error) {
	cur := sim.NewChargeCursor(&r.cfg.Cost, u.buffer, 1, replay)
	evictedBefore := u.buffer.Stats().Evictions
	var diskWaitNanos, zeroWaits int64
	// expire reads the members' contexts and takes r.mu only when one
	// has ended, to take it out of the lifecycle.
	expire := func() (alive int) {
		if !slices.ContainsFunc(members, func(t *task) bool { return t.Expired(0) }) {
			return len(members)
		}
		var timedOut []*task
		r.mu.Lock()
		members, timedOut = r.life.Expire(int(u.id), time.Now().UnixNano(), nil)
		r.madeRoom(len(timedOut))
		r.mu.Unlock()
		for _, t := range timedOut {
			t.Charge, t.diskWait = cur.Charge, diskWaitNanos
			r.timeOut(t, "cancelled mid-traversal")
		}
		return len(members)
	}

	split := r.diskSlot != nil || len(members) > 1
	inlineNanos, extra := cur.RunHits(), time.Duration(0)
	var err error
	for err == nil && !cur.Done() && (!split || expire() > 0) {
		var service int64
		var delay, slotWait time.Duration
		service, delay, err = r.diskRead(int64(cur.Miss().Bytes))
		switch {
		case err == nil && split:
			slotWait, err = r.diskFetch(u, ctx, service, delay)
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
	if err == nil && expire() > 0 {
		err = r.sleepScaled(u, ctx, inlineNanos, extra)
	}
	if err != nil {
		expire()
	}
	for _, t := range members {
		t.Charge, t.diskWait = cur.Charge, diskWaitNanos
	}
	c := u.cacheCounters
	c.hits.Add(int64(cur.Hits))
	c.misses.Add(int64(cur.Misses))
	c.bytes.Add(cur.BytesRead)
	c.evictions.Add(u.buffer.Stats().Evictions - evictedBefore)
	r.obs.diskWaitNanos.ObserveN(0, zeroWaits)
	return members, err
}

// diskRead is one shared-disk read's fault evaluation, with one
// internal retry, and its modelled cost: the virtual service time of
// bytes (seek plus transfer) and any injected latency spike. A
// persistent injected error is returned wrapped.
func (r *Runtime) diskRead(bytes int64) (serviceNanos int64, delay time.Duration, err error) {
	fault := r.cfg.Faults.Eval(faultpoint.DiskRead)
	if fault.Err != nil {
		r.life.Counts.DiskFaultRetries.Add(1)
		fault = r.cfg.Faults.Eval(faultpoint.DiskRead)
		if fault.Err != nil {
			return 0, 0, fmt.Errorf("live: disk read failed after retry: %w", fault.Err)
		}
	}
	return r.cfg.Cost.Disk.SeekNanos + storage.TransferNanos(bytes, r.cfg.Cost.Disk.BytesPerSecond), fault.Delay, nil
}

// diskFetch sleeps one read's scaled service time plus delay as a wait
// of its own, holding a disk slot when there are fewer channels than
// units — genuine cross-unit contention on the shared disk — and
// returns how long the caller waited for a free one (the live analogue
// of disk queueing delay). The wait is exactly zero when a slot was
// free or none is needed: only a full disk reads the clock and waits
// under ctx. A context error means ctx ended first.
func (r *Runtime) diskFetch(u *liveUnit, ctx context.Context, serviceNanos int64, delay time.Duration) (slotWait time.Duration, err error) {
	if r.diskSlot == nil {
		return 0, r.sleepScaled(u, ctx, serviceNanos, delay)
	}
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
