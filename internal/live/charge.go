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

// charge makes u pay for replay, the access trace of the members it is
// executing: the shared sim.ChargeCursor consumes buffer hits into one
// deferred sleep and stops at each miss, which holds a disk slot for
// the scaled transfer time before the cursor loads the record. Waits
// run under ctx (see run for which one).
//
// Cancellation is scoped here and nowhere else. Before every wait each
// member's own context is checked: one that has ended resolves at once
// as timed out — its span keeping the work done on its behalf so far —
// and its slot in members is set to nil while the survivors carry on.
// A failed wait is followed by the same check, so a wait cut short by
// a member's own deadline is that member's timeout; any other failure
// (a persistent disk fault) is returned for the unresolved members.
//
// However the charge ends, what it did to the buffer is added to the
// unit's cache counters once, on the way out.
func (r *Runtime) charge(u *liveUnit, ctx context.Context, replay *traverse.Trace, members []*task, started time.Time) error {
	cur := sim.NewChargeCursor(&r.cfg.Cost, u.buffer, 1, replay)
	evictedBefore := u.buffer.Stats().Evictions
	var diskWaitNanos int64
	flushSpan := func(t *task) {
		if s := t.span; s != nil {
			cur.FillSpan(s)
			s.DiskWaitNanos = diskWaitNanos
		}
	}
	dropExpired := func() (alive int) {
		for i, t := range members {
			if t == nil {
				continue
			}
			err := t.ctx.Err()
			if err == nil {
				alive++
				continue
			}
			members[i] = nil
			flushSpan(t)
			r.finish(t, Response{
				Unit: u.id,
				Err:  fmt.Errorf("live: cancelled mid-traversal: %w", err),
				Wait: started.Sub(t.submit),
				Exec: time.Since(started),
			}, outcomeTimedOut)
		}
		return alive
	}

	inlineNanos := cur.RunHits()
	var err error
	for err == nil && dropExpired() > 0 {
		if cur.Done() {
			err = r.sleepScaled(ctx, inlineNanos, 0)
			break
		}
		var slotWait time.Duration
		slotWait, err = r.diskFetch(ctx, int64(cur.Miss().Bytes))
		diskWaitNanos += slotWait.Nanoseconds()
		if err == nil {
			inlineNanos += cur.Fill()
			inlineNanos += cur.RunHits()
		}
	}
	if err != nil {
		dropExpired()
	}
	for _, t := range members {
		if t != nil {
			flushSpan(t)
		}
	}
	c := u.cacheCounters
	c.hits.Add(int64(cur.Hits))
	c.misses.Add(int64(cur.Misses))
	c.bytes.Add(cur.BytesRead)
	c.evictions.Add(u.buffer.Stats().Evictions - evictedBefore)
	return err
}

// diskFetch is one shared-disk read: fault evaluation with one
// internal retry, then a disk slot held for the scaled transfer time
// plus any injected latency spike — genuine cross-unit contention on
// the shared disk. It returns how long the caller waited for a free
// slot (the live analogue of disk queueing delay). A persistent
// injected error is returned wrapped (not a context error); a context
// error means ctx ended first.
func (r *Runtime) diskFetch(ctx context.Context, bytes int64) (slotWait time.Duration, err error) {
	fault := r.cfg.Faults.Eval(faultpoint.DiskRead)
	if fault.Err != nil {
		r.counters.DiskFaultRetries.Add(1)
		fault = r.cfg.Faults.Eval(faultpoint.DiskRead)
		if fault.Err != nil {
			return 0, fmt.Errorf("live: disk read failed after retry: %w", fault.Err)
		}
	}
	t0 := time.Now()
	select {
	case r.diskSlot <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	slotWait = time.Since(t0)
	r.obs.diskWaitNanos.Observe(slotWait.Nanoseconds())
	if err != nil {
		return slotWait, err
	}
	r.obs.diskSlotsInUse.Add(1)
	service := r.cfg.Cost.Disk.SeekNanos + storage.TransferNanos(bytes, r.cfg.Cost.Disk.BytesPerSecond)
	err = r.sleepScaled(ctx, service, fault.Delay)
	r.obs.diskSlotsInUse.Add(-1)
	<-r.diskSlot
	return slotWait, err
}

// sleepScaled sleeps virtualNanos compressed by Config.TimeScale, plus
// extra, or until ctx ends.
func (r *Runtime) sleepScaled(ctx context.Context, virtualNanos int64, extra time.Duration) error {
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
