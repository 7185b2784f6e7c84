package sim

import (
	"context"
	"fmt"
	"testing"

	"subtrav/internal/metrics"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/traverse"
	"subtrav/internal/xrand"
)

// lifecycleRun is one seeded run of TestLifecycleProperties: a
// Lifecycle driven by random calls, the jobs it was shown, and what the
// test saw happen to each.
type lifecycleRun struct {
	t    *testing.T
	name string
	rng  *xrand.RNG
	cfg  Config
	qcap int
	l    *Lifecycle[*testJob]
	now  int64

	jobs     []*testJob
	cancels  []context.CancelFunc
	outcome  map[*testJob]string // "rejected", "timeout" or "completed"
	executed map[*testJob]bool   // returned by Dequeue and not resolved since
	tenants  map[string]*metrics.Snapshot
	round    []*testJob // a round taken and not yet placed

	// carried holds the non-batchable tasks a dequeued batchable run
	// left at the front of their queue, to wait out the run's
	// execution; carriedDrops counts those the next dequeue timed out.
	carried      map[*testJob]bool
	carriedDrops int
}

// testJob is a task embedding a Job as the live runtime's does: its
// expiry signal is its context when it has one, else its deadline.
type testJob struct {
	Job
	ctx context.Context
}

func (j *testJob) Expired(now int64) bool {
	if j.ctx != nil {
		return j.ctx.Err() != nil
	}
	return j.Job.Expired(now)
}

// TestLifecycleProperties drives the lifecycle both executors share
// through seeded random interleavings of the calls they make — arrive,
// take a round, place it (with other calls in between, as the live
// runtime schedules without its lock), dequeue, expire, complete — on a
// fake clock, across admission bounds, tenant shares, deadlines and
// context expiry, batch widths, and with and without the live queue
// bound. After every call: the lifecycle's ledger counts per tenant
// what the test saw happen, and their sum in total; in flight never
// above MaxPending and equal to what the pool, queues and units hold; no job
// resolved twice; every queue within QueueCap + NumUnits − 1 under the
// bound. At the end, after a drain, nothing is in flight. Among the
// inputs: a non-batchable task that expires while the batchable run
// ahead of it executes, which its own dequeue must then drop.
func TestLifecycleProperties(t *testing.T) {
	carriedDrops := 0
	for seed := uint64(1); seed <= 300; seed++ {
		// Each seed is a subtest: a failure is reported under the seed
		// that caused it, and it stops the test.
		if !t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			carriedDrops += runLifecycleSeed(t, seed)
		}) {
			return
		}
	}
	if carriedDrops == 0 {
		t.Error("no dequeue dropped an expired task carried behind a batchable run: that input never arose")
	}
}

// runLifecycleSeed runs one seed of TestLifecycleProperties and returns
// how many carried tasks its dequeues dropped.
func runLifecycleSeed(t *testing.T, seed uint64) int {
	rng := xrand.New(seed)
	cfg := Config{
		NumUnits:        1 + rng.Intn(4),
		MemoryPerUnit:   1 << 20,
		MaxQueuePerUnit: 1 + rng.Intn(3),
		BatchTraversals: []int{0, 2, 4}[rng.Intn(3)],
		MaxPending:      []int{0, 3, 8}[rng.Intn(3)],
		TenantShare:     []float64{0, 0.3, 0.5}[rng.Intn(3)],
	}
	qcap := 0
	if rng.Intn(2) == 0 {
		qcap = cfg.MaxQueuePerUnit // the live runtime's configuration
	}
	r := &lifecycleRun{
		t: t,
		name: fmt.Sprintf("seed %d (%d units, depth %d, batch %d, MaxPending %d, share %g, cap %d)", seed,
			cfg.NumUnits, cfg.MaxQueuePerUnit, cfg.BatchTraversals, cfg.MaxPending, cfg.TenantShare, qcap),
		rng:      rng,
		cfg:      cfg,
		qcap:     qcap,
		l:        NewLifecycle[*testJob](cfg, qcap, signature.NewTable(0)),
		outcome:  map[*testJob]string{},
		executed: map[*testJob]bool{},
		tenants:  map[string]*metrics.Snapshot{},
		carried:  map[*testJob]bool{},
	}
	for step := 0; step < 300; step++ {
		r.now += int64(rng.Intn(3))
		switch rng.Intn(7) {
		case 0, 1:
			r.arrive()
		case 2:
			r.takeOrPlace()
		case 3:
			r.dequeue(rng.Intn(cfg.NumUnits))
		case 4:
			r.expire(rng.Intn(cfg.NumUnits))
		case 5:
			r.complete(rng.Intn(cfg.NumUnits))
		case 6:
			if len(r.cancels) > 0 {
				r.cancels[rng.Intn(len(r.cancels))]()
			}
		}
		r.check()
		if t.Failed() {
			t.Fatalf("%s: failed at step %d", r.name, step)
		}
	}
	r.drain()
	for _, cancel := range r.cancels {
		cancel()
	}
	return r.carriedDrops
}

func (r *lifecycleRun) arrive() {
	op := traverse.OpBFS
	if r.rng.Intn(3) == 0 {
		op = traverse.OpRWR // not batchable: it ends a batchable run
	}
	task := &sched.Task{
		ID:      int64(len(r.jobs)),
		Query:   traverse.Query{Op: op},
		Arrival: r.now,
		Tenant:  []string{"", "a", "b"}[r.rng.Intn(3)],
	}
	j := &testJob{Job: Job{Task: task}}
	switch r.rng.Intn(4) {
	case 0:
		task.Deadline = r.now + 1 + int64(r.rng.Intn(30))
	case 1:
		ctx, cancel := context.WithCancel(context.Background())
		j.ctx = ctx
		r.cancels = append(r.cancels, cancel)
	}
	r.jobs = append(r.jobs, j)
	r.tenant(j).Submitted++
	if r.l.Arrive(j) != Admitted {
		r.resolve(j, "rejected")
	}
}

func (r *lifecycleRun) tenant(j *testJob) *metrics.Snapshot {
	name := j.Task.Tenant
	if r.tenants[name] == nil {
		r.tenants[name] = &metrics.Snapshot{}
	}
	return r.tenants[name]
}

// takeOrPlace takes a round, or places the one taken earlier on random
// units.
func (r *lifecycleRun) takeOrPlace() {
	if r.round == nil {
		round, tasks, timedOut := r.l.Take(r.now, nil)
		r.timedOut(timedOut)
		if len(round) > r.cfg.NumUnits || len(tasks) != len(round) {
			r.t.Errorf("%s: a round of %d tasks (%d shown to the scheduler) on %d units", r.name, len(round), len(tasks), r.cfg.NumUnits)
		}
		for i, j := range round {
			if tasks[i] != j.Task || j.Expired(r.now) || r.outcome[j] != "" {
				r.t.Errorf("%s: round holds task %d: expired %t, resolved %q", r.name, j.Task.ID, j.Expired(r.now), r.outcome[j])
			}
		}
		r.round = append([]*testJob(nil), round...)
		return
	}
	for _, j := range r.round {
		r.l.Place(j, r.rng.Intn(r.cfg.NumUnits), r.now)
	}
	r.round = nil
}

func (r *lifecycleRun) dequeue(u int) {
	if r.l.Units()[u].Busy() {
		return
	}
	members, timedOut := r.l.Dequeue(u, r.now, nil)
	for _, j := range timedOut {
		if r.carried[j] {
			r.carriedDrops++
		}
	}
	r.timedOut(timedOut)
	if q := &r.l.units[u].queue; len(members) > 0 && traverse.Batchable(members[0].Task.Query.Op) &&
		r.cfg.BatchTraversals > 1 && q.Len() > 0 && !traverse.Batchable(q.Front().Task.Query.Op) {
		r.carried[q.Front()] = true
	}
	if len(members) > max(r.cfg.BatchTraversals, 1) {
		r.t.Errorf("%s: unit %d dequeued %d members, batch width %d", r.name, u, len(members), r.cfg.BatchTraversals)
	}
	for _, j := range members {
		if len(members) > 1 && !traverse.Batchable(j.Task.Query.Op) {
			r.t.Errorf("%s: non-batchable task %d in a batch of %d", r.name, j.Task.ID, len(members))
		}
		if j.Expired(r.now) || int(j.Unit) != u {
			r.t.Errorf("%s: unit %d started task %d (expired %t, placed on %d)", r.name, u, j.Task.ID, j.Expired(r.now), j.Unit)
		}
		r.executed[j] = true
	}
}

func (r *lifecycleRun) expire(u int) {
	members, timedOut := r.l.Expire(u, r.now, nil)
	for _, j := range timedOut {
		if !r.executed[j] {
			r.t.Errorf("%s: unit %d expired task %d, which it was not executing", r.name, u, j.Task.ID)
		}
	}
	r.timedOut(timedOut)
	for _, j := range members {
		if !r.executed[j] {
			r.t.Errorf("%s: unit %d executes task %d, which it never dequeued", r.name, u, j.Task.ID)
		}
	}
}

func (r *lifecycleRun) complete(u int) {
	members := r.l.Complete(u, r.now)
	r.l.Sign(u, r.now, members)
	for _, j := range members {
		if !r.executed[j] || int(j.Unit) != u {
			r.t.Errorf("%s: unit %d completed task %d, which it was not executing", r.name, u, j.Task.ID)
		}
		r.resolve(j, "completed")
	}
}

func (r *lifecycleRun) timedOut(jobs []*testJob) {
	for _, j := range jobs {
		if !j.Expired(r.now) {
			r.t.Errorf("%s: task %d timed out before its expiry signal fired", r.name, j.Task.ID)
		}
		r.resolve(j, "timeout")
	}
}

// resolve records j's outcome; a second one for the same job fails.
func (r *lifecycleRun) resolve(j *testJob, outcome string) {
	if prev := r.outcome[j]; prev != "" {
		r.t.Errorf("%s: task %d resolved twice: %s, then %s", r.name, j.Task.ID, prev, outcome)
	}
	r.outcome[j] = outcome
	delete(r.executed, j)
	n := r.tenant(j)
	switch outcome {
	case "rejected":
		n.Rejected++
	case "timeout":
		n.TimedOut++
	default:
		n.Completed++
	}
}

func (r *lifecycleRun) check() {
	adm := r.l.Admission()
	inflight := int64(adm.InFlight())
	held := int64(r.l.Pending() + len(r.round))
	for i := range r.l.units {
		u := &r.l.units[i]
		held += int64(u.queue.Len() + len(u.exec))
		if r.qcap > 0 && u.queue.Len() > r.qcap+r.cfg.NumUnits-1 {
			r.t.Errorf("%s: unit %d queues %d tasks, bound %d + %d − 1", r.name, i, u.queue.Len(), r.qcap, r.cfg.NumUnits)
		}
	}
	switch {
	case held != inflight:
		r.t.Errorf("%s: %v counted, %d held", r.name, adm.Counts(), held)
	case r.cfg.MaxPending > 0 && inflight > int64(r.cfg.MaxPending):
		r.t.Errorf("%s: %d in flight, MaxPending %d", r.name, inflight, r.cfg.MaxPending)
	case adm.Buckets() != len(r.tenants):
		r.t.Errorf("%s: %d buckets for %d tenants", r.name, adm.Buckets(), len(r.tenants))
	}
	var total metrics.Snapshot
	for name, n := range r.tenants {
		if c := adm.TenantCounts(adm.Tenant(name)); c != *n {
			r.t.Errorf("%s: tenant %q: the test saw %v, the ledger counted %v", r.name, name, *n, c)
		}
		total.Submitted += n.Submitted
		total.Completed += n.Completed
		total.Rejected += n.Rejected
		total.TimedOut += n.TimedOut
	}
	if c := adm.Counts(); c != total {
		r.t.Errorf("%s: the test saw %v in total, the ledger counted %v", r.name, total, c)
	}
}

// drain places and runs everything still in flight to completion.
func (r *lifecycleRun) drain() {
	for range 10_000 {
		r.now++
		if r.round != nil {
			r.takeOrPlace()
		}
		r.takeOrPlace()
		r.takeOrPlace()
		for u := range r.cfg.NumUnits {
			r.complete(u)
			r.dequeue(u)
		}
		r.check()
		if r.l.Admission().InFlight() == 0 && r.round == nil {
			break
		}
	}
	for _, j := range r.jobs {
		if r.outcome[j] == "" {
			r.t.Errorf("%s: task %d never resolved", r.name, j.Task.ID)
		}
	}
	if c := r.l.Admission().Counts(); !c.Conserved() || c.Submitted != int64(len(r.jobs)) {
		r.t.Errorf("%s: %v after the drain, %d tasks shown", r.name, c, len(r.jobs))
	}
}

// TestCompletionWindowIsBounded: a unit that has served more tasks than
// the window holds keeps a window-sized ring, an exact lifetime count,
// and exact CompletedSince answers for every time still inside the
// window.
func TestCompletionWindowIsBounded(t *testing.T) {
	t.Parallel()
	u := &lifeUnit[*Job]{}
	if got := u.CompletedSince(0); got != 0 {
		t.Fatalf("idle unit CompletedSince = %d, want 0", got)
	}
	const extra = 1000
	const total = completionWindow + extra
	// Completion i happens at time 10·i, so "since 10·i" has an exact
	// expected answer.
	for i := 0; i < total; i++ {
		u.recordCompletion(int64(10 * i))
		if i == completionWindow/2 {
			// Still growing: exact over the whole history.
			if got := u.CompletedSince(0); got != i+1 {
				t.Fatalf("before wrap: CompletedSince(0) = %d, want %d", got, i+1)
			}
		}
	}
	if len(u.completions) != completionWindow || cap(u.completions) > 2*completionWindow {
		t.Errorf("ring holds %d (cap %d) completion times, want %d", len(u.completions), cap(u.completions), completionWindow)
	}
	if u.completed != total {
		t.Errorf("completed = %d, want %d", u.completed, total)
	}
	for _, since := range []int{total - 1, total - 7, total - completionWindow/2, extra + 1, extra} {
		want := total - since
		if got := u.CompletedSince(int64(10 * since)); got != want {
			t.Errorf("CompletedSince(completion %d) = %d, want %d", since, got, want)
		}
		// A time between two completions counts only the later ones.
		if got := u.CompletedSince(int64(10*since) - 5); got != want {
			t.Errorf("CompletedSince(just before completion %d) = %d, want %d", since, got, want)
		}
	}
	if got := u.CompletedSince(int64(10*total) + 1); got != 0 {
		t.Errorf("CompletedSince(future) = %d, want 0", got)
	}
	// Older than the window: saturates at the window size.
	for _, since := range []int64{0, 10 * (extra - 1)} {
		if got := u.CompletedSince(since); got != completionWindow {
			t.Errorf("CompletedSince(%d) = %d, want the window size %d", since, got, completionWindow)
		}
	}
}
