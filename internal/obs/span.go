package obs

import (
	"fmt"
	"strings"
)

// Span outcomes. The set mirrors the live runtime's lifecycle
// partition: every admitted query ends completed (possibly failed) or
// timed out; rejected queries never reach a unit.
const (
	OutcomeCompleted = "completed"
	OutcomeFailed    = "failed"
	OutcomeTimeout   = "timeout"
	OutcomeRejected  = "rejected"
)

// Placement is how the scheduler placed one task of a batch: the part
// of a span only the scheduler knows. sched.Explain produces it and
// both executors copy it into the span whole.
type Placement struct {
	// Affinity is the workload-weighted affinity benefit of the chosen
	// arc (0 when the task had no affinitive unit).
	Affinity float64
	// AuctionRounds is the bidding-round count of the auction segment
	// that placed the task.
	AuctionRounds int
	// FellBack marks a task that lost its auction to a same-affinity
	// sibling and followed its best-affinity unit.
	FellBack bool
	// EmptyRow marks a task with no affinity row, placed least-loaded.
	EmptyRow bool
	// Preferred marks a task placed on its highest-benefit unit (the
	// affinity "hit" of the hit-ratio telemetry). Always false for
	// tasks with no affinity row.
	Preferred bool
}

// Span is one query's trace through the system: submit →
// admit/reject → schedule → queue wait → execute → resolve. Both
// executors write it — the live runtime in wall-clock nanos, the
// simulator in virtual nanos (sim.Cluster.SetTrace) — with the same
// meaning field for field.
//
// Zero-valued fields mean "not reached": a rejected span has no
// schedule or execution phase; a query dropped before dispatch has
// Unit -1.
type Span struct {
	// QueryID is the task ID: assigned by the live runtime at admission
	// (-1 for a query it rejected, which never gets one), the caller's
	// sched.Task.ID in the simulator, whatever the outcome.
	QueryID int64
	// Op names the traversal operation ("bfs", "sssp", ...).
	Op string
	// Tenant names the submitting tenant ("" for untenanted queries).
	Tenant string
	// Start is the traversal's anchor vertex.
	Start int32

	// Timestamps in nanoseconds: wall clock for the live runtime,
	// virtual time for the simulator.
	SubmitNanos   int64
	ScheduleNanos int64
	StartNanos    int64
	EndNanos      int64

	// Unit is the chosen processing unit (-1 if resolved before
	// placement).
	Unit int32

	// Scheduling detail, filled at the schedule step: the scheduler's
	// own account of the decision (Placement), plus what the executor
	// saw around it. QueueLen is the chosen unit's queue length at
	// placement. Degraded marks placement by the least-loaded fallback
	// during a degraded round. Imbalance is the round's load-imbalance
	// factor (max/mean effective unit load) right after this task's
	// placement — with Placement.Preferred it locates the decision on
	// the balance-affinity curve.
	Placement
	Imbalance float64
	QueueLen  int
	Degraded  bool

	// Execution detail, filled by the executing unit.
	CacheHits     int
	CacheMisses   int
	BytesRead     int64
	DiskWaitNanos int64

	// WaitNanos and ExecNanos are the queueing and execution
	// durations; Outcome and Err describe the resolution.
	WaitNanos int64
	ExecNanos int64
	Outcome   string
	Err       string
}

// SpanCSVHeader is the header row of the span CSV rendering. A live
// trace and a simulated one of the same stream join on the leading
// task and unit columns.
const SpanCSVHeader = "task,unit,op,tenant,start,submit_ns,schedule_ns,start_ns,end_ns," +
	"affinity,imbalance,preferred,queue_len,auction_rounds,degraded,fell_back,empty_row," +
	"cache_hits,cache_misses,bytes_read,disk_wait_ns," +
	"wait_ns,exec_ns,outcome,err"

// CSVRow renders the span as one CSV line matching SpanCSVHeader.
func (s Span) CSVRow() string {
	return fmt.Sprintf("%d,%d,%s,%s,%d,%d,%d,%d,%d,%g,%g,%t,%d,%d,%t,%t,%t,%d,%d,%d,%d,%d,%d,%s,%s",
		s.QueryID, s.Unit, s.Op, csvEscape(s.Tenant), s.Start,
		s.SubmitNanos, s.ScheduleNanos, s.StartNanos, s.EndNanos,
		s.Affinity, s.Imbalance, s.Preferred, s.QueueLen, s.AuctionRounds, s.Degraded, s.FellBack, s.EmptyRow,
		s.CacheHits, s.CacheMisses, s.BytesRead, s.DiskWaitNanos,
		s.WaitNanos, s.ExecNanos, s.Outcome, csvEscape(s.Err))
}

// csvEscape keeps error strings on one CSV cell.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(strings.ReplaceAll(s, `"`, `""`), "\n", " ") + `"`
}

func (s Span) String() string {
	return fmt.Sprintf("span{q=%d op=%s unit=%d outcome=%s wait=%dns exec=%dns hits=%d misses=%d}",
		s.QueryID, s.Op, s.Unit, s.Outcome, s.WaitNanos, s.ExecNanos, s.CacheHits, s.CacheMisses)
}
