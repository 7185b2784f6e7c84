package live

import (
	"sync"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
)

// Scheduler degradation: after degradeAfter consecutive rounds over
// Config.SchedTimeout (or with an injected scheduler fault), rounds use
// the least-loaded fallback for degradeCooldown rounds.
const (
	degradeAfter    = 3
	degradeCooldown = 8
)

// dispatcher runs the lifecycle's scheduling rounds on wall time,
// mirroring the Figure 6 flow and sim.Cluster.dispatch: it wakes when a
// task is submitted or a unit makes room for pending ones, and each
// wake runs rounds until nothing is pending or no unit has room. On
// Close it keeps placing what is pending until nothing is.
func (r *Runtime) dispatcher() {
	defer r.wg.Done()
	defer close(r.drained)
	stop := r.stop
	for {
		select {
		case <-stop:
			stop = nil
		case <-r.wake:
		}
		if r.dispatch() == 0 && stop == nil {
			return
		}
	}
}

// dispatch runs the lifecycle's rounds until the pending pool is empty
// or no unit has room, and returns how many tasks it left pending. The
// scheduler runs without r.mu; placing a round and taking the next
// share one critical section, and only then are the idle units the
// round gave work woken, so a worker's first dequeue never races the
// dispatcher's next Take for the lock.
func (r *Runtime) dispatch() (pending int) {
	r.mu.Lock()
	for {
		round, tasks, timedOut := r.life.Take(time.Now().UnixNano(), nil)
		for i, s := range r.life.Units() {
			r.views[i].queued, r.views[i].busy = s.QueueLen(), s.Busy()
		}
		pending = r.life.Pending()
		r.mu.Unlock()
		for _, u := range r.woken {
			select {
			case r.units[u].wake <- struct{}{}:
			default: // a wake is already waiting
			}
		}
		r.woken = r.woken[:0]
		for _, t := range timedOut {
			r.timeOut(t, "dropped before dispatch")
		}
		if round == nil {
			return pending
		}

		placement, start, degraded := r.schedule(round, tasks)
		r.mu.Lock()
		for i, t := range round {
			t.degraded = degraded
			if u, idle := r.life.Place(t, placement[i], start); idle {
				r.woken = append(r.woken, u)
			}
		}
		// The balance half of the balance-affinity tradeoff; the
		// affinity half (hit ratio, win margin) is the scheduler's own.
		r.obs.imbalance.Set(round[0].Imbalance)
		r.obs.imbalanceMilli.Observe(int64(round[0].Imbalance * 1000))
	}
}

// schedule runs one scheduling round, measuring it against
// SchedTimeout and degrading to the least-loaded fallback after
// repeated overruns or injected scheduler faults, and returns the
// placement, when the round started and whether it was degraded. The
// scheduler sees the units as the round's Take left them (r.states).
// Dispatcher goroutine only.
func (r *Runtime) schedule(round []*task, tasks []*sched.Task) (placement []int, start int64, degraded bool) {
	fault := r.cfg.Faults.Eval(faultpoint.SchedRound)
	if fault.Delay > 0 {
		time.Sleep(fault.Delay) // injected stall: the round really is slow
	}

	degraded = r.degradeLeft > 0 || fault.Err != nil
	began := time.Now()
	s := r.sched
	if degraded {
		if r.degradeLeft > 0 {
			r.degradeLeft--
		}
		r.obs.degradedRounds.Inc()
		s = r.fallback
	}
	placement = sim.Assign(s, round, tasks, r.states)
	elapsed := time.Since(began) + fault.Delay
	r.obs.schedNanos.Observe(elapsed.Nanoseconds())

	if r.cfg.SchedTimeout > 0 {
		if elapsed > r.cfg.SchedTimeout || fault.Err != nil {
			r.slowRounds++
			if r.slowRounds >= degradeAfter && r.degradeLeft == 0 {
				r.degradeLeft = degradeCooldown
				r.slowRounds = 0
			}
		} else if !degraded {
			r.slowRounds = 0
		}
	}
	return placement, began.UnixNano(), degraded
}

// unitView is one unit as a scheduling round sees it: its queue length
// and busy flag as the round's Take left them, the rest read from the
// lifecycle's unit — its completion history under r.mu, which the
// scheduler runs without.
type unitView struct {
	sched.UnitState
	mu     *sync.Mutex
	queued int
	busy   bool
}

// QueueLen implements sched.UnitState.
func (v *unitView) QueueLen() int { return v.queued }

// Busy implements sched.UnitState.
func (v *unitView) Busy() bool { return v.busy }

// CompletedSince implements affinity.UnitView.
func (v *unitView) CompletedSince(t int64) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.UnitState.CompletedSince(t)
}
