package live

import (
	"fmt"
	"sort"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/sched"
)

// dispatcher batches pending queries and runs scheduling rounds,
// mirroring the Figure 6 flow on wall time.
func (r *Runtime) dispatcher() {
	defer r.wg.Done()
	defer func() {
		// Final drain: schedule whatever is still pending, blocking on
		// saturated queues (workers are still consuming them).
		r.dispatchBatch(true)
		for _, u := range r.units {
			close(u.queue)
		}
	}()
	timer := time.NewTimer(r.cfg.BatchWindow)
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
			// Give the batch window a chance to accumulate peers, but
			// only when a fuller round could place them better.
			if r.windowPays() {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(r.cfg.BatchWindow)
				select {
				case <-timer.C:
				case <-r.stop:
				}
			}
			// Dispatch; when every queue is full, back off for a batch
			// window (or a new wake) and retry rather than blocking.
			for r.dispatchBatch(false) {
				timer.Reset(r.cfg.BatchWindow)
				select {
				case <-r.stop:
					return
				case <-r.wake:
				case <-timer.C:
				}
			}
		}
	}
}

// windowPays reports whether waiting a batch window for peers can gain
// anything: some task is pending, the pool holds less than a full round
// of NumUnits, and no unit is idle (empty queue, not executing). With
// an idle unit, a task placed now starts now; with a full round pending,
// waiting adds nothing the round can use. Either way the simulator's
// rule applies: schedule as soon as a task and a unit with room meet.
func (r *Runtime) windowPays() bool {
	r.mu.Lock()
	n := r.pending.Len()
	r.mu.Unlock()
	if n == 0 || n >= len(r.units) {
		return false
	}
	for _, u := range r.units {
		if u.QueueLen() == 0 && !u.Busy() {
			return false
		}
	}
	return true
}

// dispatchBatch assigns up to NumUnits pending tasks per round until
// the pending pool is empty. In non-blocking mode it returns true
// ("blocked") when unit queues are saturated, leaving the unplaced
// tasks at the head of the pending pool.
func (r *Runtime) dispatchBatch(block bool) (blocked bool) {
	for {
		r.mu.Lock()
		if r.pending.Len() == 0 {
			r.mu.Unlock()
			return false
		}
		n := min(len(r.units), r.pending.Len())
		batch := append(r.batch[:0], r.pending.PopN(n)...)
		scheduler := r.sched
		r.mu.Unlock()

		// Resolve tasks whose deadline already expired: their unit
		// slot is never consumed.
		live := batch[:0]
		for _, t := range batch {
			if err := t.ctx.Err(); err != nil {
				r.finish(t, Response{
					Unit: -1,
					Err:  fmt.Errorf("live: dropped before dispatch: %w", err),
					Wait: time.Since(t.submit),
				}, outcomeTimedOut)
				continue
			}
			live = append(live, t)
		}
		if len(live) == 0 {
			continue
		}

		placement := r.schedule(scheduler, live)
		for i, t := range live {
			u := r.units[placement[i]]
			if r.tryEnqueue(u, t) {
				continue
			}
			// Assigned unit saturated: degrade the placement to any
			// unit with room rather than blocking the dispatcher.
			if r.enqueueLeastLoaded(t) {
				continue
			}
			if block {
				u.queued.Add(1)
				u.queue <- t
				continue
			}
			// Every queue is full: push the rest back and back off.
			r.mu.Lock()
			r.pending.PushFront(live[i:])
			r.mu.Unlock()
			return true
		}
	}
}

// schedule runs one scheduling round, measuring it against
// SchedTimeout and degrading to the least-loaded fallback after
// repeated overruns or injected scheduler faults. Dispatcher
// goroutine only.
func (r *Runtime) schedule(scheduler sched.Scheduler, batch []*task) []int {
	stasks, units := r.stasks[:len(batch)], r.unitStates
	for i, t := range batch {
		r.staskBuf[i] = sched.Task{ID: t.id, Query: t.query, Arrival: t.submit.UnixNano()}
	}

	fault := r.cfg.Faults.Eval(faultpoint.SchedRound)
	if fault.Delay > 0 {
		time.Sleep(fault.Delay) // injected stall: the round really is slow
	}

	degraded := r.degradeLeft > 0 || fault.Err != nil
	start := time.Now()
	var placement []int
	var explain []sched.Explain
	if degraded {
		if r.degradeLeft > 0 {
			r.degradeLeft--
		}
		r.counters.DegradedRounds.Add(1)
		placement = r.fallback.Assign(stasks, units)
	} else if ex, ok := scheduler.(sched.Explainer); ok {
		placement, explain = ex.AssignExplained(stasks, units)
	} else {
		placement = scheduler.Assign(stasks, units)
	}
	elapsed := time.Since(start) + fault.Delay
	r.obs.schedNanos.Observe(elapsed.Nanoseconds())

	// Post-placement load-imbalance factor: max/mean effective unit
	// load (queue + busy + this round's placements). This is the
	// balance half of the balance-affinity tradeoff; the affinity half
	// (hit ratio, win margin) is tracked inside the scheduler.
	loads := r.loads
	var maxLoad, sumLoad int
	for i, u := range r.units {
		loads[i] = u.QueueLen()
		if u.Busy() {
			loads[i]++
		}
	}
	for _, p := range placement {
		loads[p]++
	}
	for _, l := range loads {
		sumLoad += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	imbalance := 1.0
	if sumLoad > 0 {
		imbalance = float64(maxLoad) * float64(len(loads)) / float64(sumLoad)
	}
	r.obs.imbalance.Set(imbalance)
	r.obs.imbalanceMilli.Observe(int64(imbalance * 1000))

	// Fill the schedule phase of each task's span (dispatcher owns the
	// tasks until they are enqueued, so this is race-free).
	now := start.UnixNano()
	for i, t := range batch {
		s := t.span
		if s == nil {
			continue
		}
		s.ScheduleNanos = now
		s.Unit = int32(placement[i])
		s.QueueLen = r.units[placement[i]].QueueLen()
		s.Degraded = degraded
		s.Imbalance = imbalance
		if explain != nil {
			s.Placement = explain[i].Placement
		}
	}

	if r.cfg.SchedTimeout > 0 {
		if elapsed > r.cfg.SchedTimeout || fault.Err != nil {
			r.slowRounds++
			if r.slowRounds >= r.cfg.DegradeAfter && r.degradeLeft == 0 {
				r.degradeLeft = r.cfg.DegradeCooldown
				r.slowRounds = 0
			}
		} else if !degraded {
			r.slowRounds = 0
		}
	}
	return placement
}

// tryEnqueue attempts a non-blocking enqueue on u.
func (r *Runtime) tryEnqueue(u *liveUnit, t *task) bool {
	u.queued.Add(1)
	select {
	case u.queue <- t:
		return true
	default:
		u.queued.Add(-1)
		return false
	}
}

// enqueueLeastLoaded tries every unit in increasing queue-length
// order. Returns false when all queues are full.
func (r *Runtime) enqueueLeastLoaded(t *task) bool {
	order := make([]int, len(r.units))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return r.units[order[a]].queued.Load() < r.units[order[b]].queued.Load()
	})
	for _, i := range order {
		if r.tryEnqueue(r.units[i], t) {
			return true
		}
	}
	return false
}
