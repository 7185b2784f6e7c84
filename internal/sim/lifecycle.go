package sim

import (
	"fmt"
	"slices"

	"subtrav/internal/fifo"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/traverse"
)

// completionWindow caps how many completion times a unit remembers for
// CompletedSince: 512 KiB per unit for the life of an always-on
// service. Saturation is invisible to the scheduler at default settings
// for any per-unit budget up to 3.4 GiB (DESIGN.md §6.14).
const completionWindow = 1 << 16

// Job is one task's passage through a Lifecycle, and the one record
// either executor traces it from (Span). An executor embeds it in its
// own task type (the simulator uses it as is) and fills Task; Execute
// sets Result and Trace — the kernel's output, Trace what Sign signs
// into L(v) — Assign the Placement, and the executor leaves its
// charge's counts in Charge. The lifecycle stamps the rest: Arrive sets
// Bucket, and Unit and Started to -1; Place sets Unit, Scheduled,
// QueueLen, and, once the round is placed, Imbalance; Dequeue sets
// Started.
type Job struct {
	Task      *sched.Task
	Result    traverse.Result
	Trace     *traverse.Trace
	Placement obs.Placement
	Charge
	Bucket int
	// Unit is the unit the task was queued on, and QueueLen how many
	// tasks were queued ahead of it there.
	Unit     int32
	QueueLen int32
	// Scheduled is the start of the round that placed the task, and
	// Started when its unit began executing it.
	Scheduled int64
	Started   int64
	// Imbalance is the load-imbalance factor of the units right after
	// the round that placed the task: max/mean effective load (queued,
	// plus one when executing), 1 when balanced.
	Imbalance float64
}

func (j *Job) job() *Job { return j }

// Expired is a Job's expiry signal: the clock has reached its task's
// deadline.
func (j *Job) Expired(now int64) bool { return j.Task.Deadline > 0 && now >= j.Task.Deadline }

// Span is the job's trace span for its resolution at end with outcome:
// the one place either executor turns a task's passage into an
// obs.Span. A stage the job never reached leaves its fields zero (Unit
// -1). The live runtime adds what only it knows.
func (j *Job) Span(outcome string, end int64) obs.Span {
	t := j.Task
	s := obs.Span{
		QueryID: t.ID, Op: t.Query.Op.String(), Tenant: t.Tenant, Start: int32(t.Query.Start),
		SubmitNanos: t.Arrival, EndNanos: end, Unit: j.Unit,
		CacheHits: j.Hits, CacheMisses: j.Misses, BytesRead: j.BytesRead,
		WaitNanos: end - t.Arrival, Outcome: outcome,
	}
	if j.Unit >= 0 {
		s.ScheduleNanos, s.Placement, s.QueueLen, s.Imbalance = j.Scheduled, j.Placement, int(j.QueueLen), j.Imbalance
	}
	if j.Started >= 0 {
		s.StartNanos, s.WaitNanos, s.ExecNanos = j.Started, j.Started-t.Arrival, end-j.Started
	}
	return s
}

// jobber is a *Job, or a pointer to an executor's task that embeds one.
// Its Expired is the task's expiry signal at a clock reading: the Job's
// own in the simulator, the caller's context in the live runtime.
type jobber interface {
	job() *Job
	Expired(now int64) bool
}

// Lifecycle is the task lifecycle of the paper's Figure 6, written once
// for both executors: admission, a pending pool, rounds of up to P
// tasks placed onto per-unit FCFS queues, the dequeue that starts a
// unit on its next task or batchable run, deadline drops at each step
// and during execution, and completion — per-unit completion times,
// admission release, and (Sign) visit signatures. Its Admission is the
// ledger of every query Arrive was shown: submitted = completed +
// rejected + timed-out once nothing is in flight, per tenant and in
// total. The
// simulator drives it from its event loop; the live runtime under its
// mutex, scheduling between Take and Place without the lock. Executors
// supply the clock reading each call takes, each job's expiry signal,
// and their disk, which the lifecycle never sees. An admitted job
// resolves exactly once: timed out by Take, Dequeue or Expire, which
// return it for the executor to report, or by Complete. Not safe for
// concurrent use, but for Sign.
type Lifecycle[T jobber] struct {
	cfg     Config
	qcap    int
	sigs    *signature.Table
	adm     *Admission
	units   []lifeUnit[T]
	states  []sched.UnitState // units as a scheduler sees them
	pending fifo.Queue[T]
	round   []T // the last Take's round and its scheduler view
	tasks   []*sched.Task
	placed  int     // how many of round Place has queued
	loads   []int64 // the units' effective loads, for Imbalance
}

// lifeUnit is one unit's queue, executing members and completion
// times: a ring, oldest at completed % len(completions).
type lifeUnit[T jobber] struct {
	queue       fifo.Queue[T]
	exec        []T
	budget      int64
	completions []int64
	completed   int64
}

// NewLifecycle builds the lifecycle of cfg's units, dispatch depth
// (MaxQueuePerUnit), batch width and admission bounds, signing
// completions into sigs. A positive queueCap bounds the queues: a task
// placed on a unit queueing queueCap goes to the least-loaded unit, so
// at a depth of queueCap no queue exceeds queueCap + NumUnits − 1. At
// zero, the paper's model, a queue takes whatever it is given.
func NewLifecycle[T jobber](cfg Config, queueCap int, sigs *signature.Table) *Lifecycle[T] {
	l := &Lifecycle[T]{
		cfg:   cfg,
		qcap:  queueCap,
		sigs:  sigs,
		adm:   NewAdmission(cfg.MaxPending, cfg.TenantShare),
		units: make([]lifeUnit[T], cfg.NumUnits),
		loads: make([]int64, cfg.NumUnits),
	}
	for i := range l.units {
		l.units[i].budget = cfg.MemoryPerUnit
		l.states = append(l.states, &l.units[i])
	}
	return l
}

// Reset empties the lifecycle for another run, keeping what its queues
// grew to.
func (l *Lifecycle[T]) Reset() {
	l.adm = NewAdmission(l.cfg.MaxPending, l.cfg.TenantShare)
	l.pending.Reset()
	for i := range l.units {
		u := &l.units[i]
		u.queue.Reset()
		u.exec, u.completions, u.completed = u.exec[:0], u.completions[:0], 0
	}
}

// forget drops what the lifecycle's storage still points to.
func (l *Lifecycle[T]) forget() {
	l.pending.Reset()
	clear(l.round[:cap(l.round)])
	for i := range l.units {
		clear(l.units[i].exec[:cap(l.units[i].exec)])
	}
}

// Admission returns the accept/reject rule and its ledger.
func (l *Lifecycle[T]) Admission() *Admission { return l.adm }

// Units returns the units as a scheduler is shown them.
func (l *Lifecycle[T]) Units() []sched.UnitState { return l.states }

// Pending returns how many admitted tasks no round has taken yet.
func (l *Lifecycle[T]) Pending() int { return l.pending.Len() }

// Completed returns how many tasks unit u has completed.
func (l *Lifecycle[T]) Completed(u int) int64 { return l.units[u].completed }

// Arrive puts t to admission: admitted, it joins the pending pool.
func (l *Lifecycle[T]) Arrive(t T) Verdict {
	j := t.job()
	j.Bucket, j.Unit, j.Started = l.adm.Tenant(j.Task.Tenant), -1, -1
	if v := l.adm.Admit(j.Bucket); v != Admitted {
		return v
	}
	l.pending.Push(t)
	return Admitted
}

// Take pops the next round, if tasks are pending and some unit is below
// the dispatch depth (queued plus executing): up to P tasks, less those
// whose expiry signal has fired at now, appended to timedOut. tasks is
// the round's scheduler view; both are nil when no round runs, and
// valid until the next Take.
func (l *Lifecycle[T]) Take(now int64, timedOut []T) (round []T, tasks []*sched.Task, _ []T) {
	for l.pending.Len() > 0 && l.hasRoom() {
		popped := l.pending.PopN(min(len(l.units), l.pending.Len()))
		round, timedOut = l.dropExpired(append(l.round[:0], popped...), now, timedOut)
		clear(popped)
		l.round = round
		if len(round) > 0 {
			tasks = l.tasks[:0]
			for _, t := range round {
				tasks = append(tasks, t.job().Task)
			}
			l.tasks, l.placed = tasks, 0
			return round, tasks, timedOut
		}
	}
	return nil, nil, timedOut
}

func (l *Lifecycle[T]) hasRoom() bool {
	for i := range l.units {
		if l.units[i].load() < l.cfg.MaxQueuePerUnit {
			return true
		}
	}
	return false
}

// Assign asks s to place round, whose scheduler view is tasks, on units,
// and copies into each job the placement detail the auction scheduler
// keeps; another scheduler's jobs keep a zero Placement.
func Assign[T jobber](s sched.Scheduler, round []T, tasks []*sched.Task, units []sched.UnitState) []int {
	picks := s.Assign(tasks, units)
	if a, ok := s.(*sched.Auction); ok {
		for i, e := range a.Explained() {
			round[i].job().Placement = e.Placement
		}
	}
	return picks
}

// Place queues t, a task of the last Take's round, on the unit its
// scheduler picked (or, past the queue bound, the least-loaded one) in
// the round that started at start, and returns that unit and whether it
// idles, in which case the executor starts it. Placing the round's last
// task stamps every task of the round with the units' imbalance.
func (l *Lifecycle[T]) Place(t T, pick int, start int64) (unit int, idle bool) {
	j := t.job()
	if pick < 0 || pick >= len(l.units) {
		panic(fmt.Sprintf("sim: task %d placed on unit %d of %d", j.Task.ID, pick, len(l.units)))
	}
	if l.qcap > 0 && l.units[pick].queue.Len() >= l.qcap {
		for i := range l.units {
			if l.units[i].load() < l.units[pick].load() {
				pick = i
			}
		}
	}
	q := &l.units[pick].queue
	j.Unit, j.Scheduled, j.QueueLen = int32(pick), start, int32(q.Len())
	q.Push(t)
	if l.placed++; l.placed == len(l.round) {
		for i := range l.units {
			l.loads[i] = int64(l.units[i].QueueLen())
			if l.units[i].Busy() {
				l.loads[i]++
			}
		}
		imbalance := metrics.Imbalance(l.loads)
		for _, t := range l.round {
			t.job().Imbalance = imbalance
		}
	}
	return pick, len(l.units[pick].exec) == 0
}

// Dequeue starts idle unit u on its queue's head and, at a batch width
// above one, the batchable run behind a batchable head. Members whose
// expiry signal has fired are timed out unexecuted (appended to
// timedOut) until something starts; members, started at now, is what u
// executes until its next Dequeue, nil if the queue ran out.
func (l *Lifecycle[T]) Dequeue(u int, now int64, timedOut []T) (members, _ []T) {
	lu := &l.units[u]
	for lu.queue.Len() > 0 {
		members = append(lu.exec[:0], lu.queue.Pop())
		if b := l.cfg.BatchTraversals; b > 1 && traverse.Batchable(members[0].job().Task.Query.Op) {
			for len(members) < b && lu.queue.Len() > 0 && traverse.Batchable(lu.queue.Front().job().Task.Query.Op) {
				members = append(members, lu.queue.Pop())
			}
		}
		members, timedOut = l.dropExpired(members, now, timedOut)
		if lu.exec = members; len(members) > 0 {
			for _, t := range members {
				t.job().Started = now
			}
			return members, timedOut
		}
	}
	return nil, timedOut
}

// Expire times out u's executing members whose expiry signal has fired
// (appended to timedOut) and returns the rest; with none, u idles.
func (l *Lifecycle[T]) Expire(u int, now int64, timedOut []T) (members, _ []T) {
	lu := &l.units[u]
	lu.exec, timedOut = l.dropExpired(lu.exec, now, timedOut)
	return lu.exec, timedOut
}

// Complete finishes u's executing members — completions credited to
// u, admission slots released as completed — and returns them, valid until u's next
// Dequeue, for Sign. u idles.
func (l *Lifecycle[T]) Complete(u int, now int64) []T {
	lu := &l.units[u]
	members := lu.exec
	for _, t := range members {
		lu.recordCompletion(now)
		l.adm.Release(t.job().Bucket, false)
	}
	lu.exec = lu.exec[:0]
	return members
}

// Sign signs the traces of members completed on u at now into L(v)
// (L(v) ← L(v) ∪ (t, u)); a member without a trace signs nothing. It
// touches no lifecycle state, only the signature table, which locks its
// own stripes: an executor may sign without holding the lifecycle's
// lock.
func (l *Lifecycle[T]) Sign(u int, now int64, members []T) {
	for _, t := range members {
		if j := t.job(); j.Trace != nil {
			l.sigs.RecordTrace(j.Trace.Touched, int32(u), now)
		}
	}
}

// dropExpired times out the members whose expiry signal has fired at
// now, unsigned, uncredited and released as timed out, and returns the
// rest compacted.
func (l *Lifecycle[T]) dropExpired(members []T, now int64, timedOut []T) (live, _ []T) {
	live = members[:0]
	for _, t := range members {
		if t.Expired(now) {
			l.adm.Release(t.job().Bucket, true)
			timedOut = append(timedOut, t)
		} else {
			live = append(live, t)
		}
	}
	return live, timedOut
}

// load counts queued plus executing tasks.
func (u *lifeUnit[T]) load() int { return u.queue.Len() + len(u.exec) }

func (u *lifeUnit[T]) recordCompletion(now int64) {
	if len(u.completions) < completionWindow {
		u.completions = append(u.completions, now)
	} else {
		u.completions[u.completed%completionWindow] = now
	}
	u.completed++
}

// QueueLen implements sched.UnitState: tasks allocated but not yet
// executing (w_p and n_p of the paper).
func (u *lifeUnit[T]) QueueLen() int { return u.queue.Len() }

// Busy implements sched.UnitState.
func (u *lifeUnit[T]) Busy() bool { return len(u.exec) > 0 }

// CompletedSince implements affinity.UnitView, saturating at
// completionWindow. The ring is two ascending runs, the older from the
// oldest entry to the end.
func (u *lifeUnit[T]) CompletedSince(t int64) int {
	c, oldest := u.completions, 0
	if len(c) == completionWindow {
		oldest = int(u.completed % completionWindow)
	}
	older, _ := slices.BinarySearch(c[oldest:], t)
	newer, _ := slices.BinarySearch(c[:oldest], t)
	return len(c) - older - newer
}

// MemoryBudget implements affinity.UnitView.
func (u *lifeUnit[T]) MemoryBudget() int64 { return u.budget }
