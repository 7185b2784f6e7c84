package sim

import (
	"sort"

	"subtrav/internal/cache"
	"subtrav/internal/fifo"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// taskState is a task with its precomputed per-query result and
// access trace, and what its trace span needs from the scheduling
// round that placed it. Run makes one per task, all in one slab, and
// the same one travels from the arrival event through the pending
// pool and a unit queue to execution.
type taskState struct {
	task   *sched.Task
	result traverse.Result
	trace  *traverse.Trace

	scheduled int64 // virtual time of the round that placed it
	placement obs.Placement
}

// execState is one executing batch — usually of size one. members
// carry the per-query results and traces; charge is the cursor over
// the trace actually charged against the buffer and shared disk: a
// solo member's own trace, or the batch's shared wave trace (each
// wave-shared record loaded once — see traverse.Batch). A unit has one,
// reused from execution to execution with its members array.
type execState struct {
	members []*taskState
	charge  ChargeCursor
	start   int64 // virtual time execution began
}

// unit is one processing unit: a private buffer, a FCFS queue, and at
// most one executing task batch.
type unit struct {
	id     int32
	buffer *cache.Cache
	queue  fifo.Queue[*taskState]
	// cur is &exec while a batch executes, nil while the unit idles.
	cur  *execState
	exec execState
	// ws is the unit's reusable traversal workspace. Its private
	// buffers hold the in-flight task's trace across replay events, so
	// they are only recycled by the unit's own next startNext — after
	// complete has consumed them. The O(|V|) dense scratch inside is
	// shared cluster-wide: the event loop runs one traversal at a time.
	ws *traverse.Workspace
	// batch is the unit's multi-source executor, nil unless
	// Config.BatchTraversals enables lockstep batches. Its outputs
	// follow the same recycle discipline as ws.
	batch *traverse.Batch
	// speed multiplies the unit's compute and hit costs (1 = nominal).
	speed float64

	// completions holds the virtual completion times of finished
	// tasks, ascending — the basis of CompletedSince (Eq. 3's n').
	completions []int64
	busyNanos   int64
}

var _ sched.UnitState = (*unit)(nil)

// QueueLen implements sched.UnitState: tasks allocated but not yet
// executing (w_p and n_p of the paper).
func (u *unit) QueueLen() int { return u.queue.Len() }

// Busy implements sched.UnitState.
func (u *unit) Busy() bool { return u.cur != nil }

// CompletedSince implements affinity.UnitView: the number of
// traversals this unit finished at or after virtual time t.
func (u *unit) CompletedSince(t int64) int {
	idx := sort.Search(len(u.completions), func(i int) bool {
		return u.completions[i] >= t
	})
	return len(u.completions) - idx
}

// MemoryBudget implements affinity.UnitView.
func (u *unit) MemoryBudget() int64 { return u.buffer.Budget() }

// effectiveLoad counts queued plus executing tasks (every member of
// an executing batch counts).
func (u *unit) effectiveLoad() int {
	l := u.queue.Len()
	if u.cur != nil {
		l += len(u.cur.members)
	}
	return l
}
