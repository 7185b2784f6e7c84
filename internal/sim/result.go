package sim

import (
	"fmt"
	"time"

	"subtrav/internal/metrics"
	"subtrav/internal/sched"
	"subtrav/internal/storage"
)

// Result is the measurement record of one simulated run — the raw
// material of every figure in the paper's evaluation.
type Result struct {
	Scheduler string
	NumUnits  int

	// Completed is the number of finished traversal tasks.
	Completed int64
	// Lifecycle partitions the tasks presented to the run exactly as
	// the live runtime's counters do: Submitted = Completed + Rejected
	// + TimedOut once Run returns. Without Config.MaxPending and task
	// deadlines nothing is rejected or timed out and Submitted =
	// Completed. (Failed, DegradedRounds and DiskFaultRetries are
	// live-only and stay zero.)
	Lifecycle metrics.Snapshot
	// Makespan is the virtual time from first arrival to last
	// completion.
	Makespan time.Duration
	// ThroughputPerSec is Completed / Makespan — the y-axis of
	// Figures 8, 9 and 11.
	ThroughputPerSec float64

	// Latency digests task turnaround (arrival → completion).
	Latency metrics.LatencySummary
	// Execution digests pure execution time (start → completion).
	Execution metrics.LatencySummary

	// Cache aggregates across all unit buffers.
	CacheHits, CacheMisses, CacheEvictions, BytesLoaded int64
	HitRate                                             float64

	// Disk is the shared-disk activity.
	Disk storage.Stats

	// TasksPerUnit is the per-unit completion count; Imbalance is its
	// max/mean (1.0 = perfectly balanced).
	TasksPerUnit []int64
	Imbalance    float64
	// MeanUtilization is the mean fraction of the makespan units spent
	// executing.
	MeanUtilization float64

	// VisitedVertices is the total vertices expanded by all tasks.
	VisitedVertices int64
}

func (c *Cluster) result(s sched.Scheduler) Result {
	r := Result{
		Scheduler:       s.Name(),
		NumUnits:        c.cfg.NumUnits,
		Completed:       c.life.Completed,
		Lifecycle:       c.life,
		VisitedVertices: c.visitedTotal,
		Latency:         metrics.SummarizeLatencies(c.latencies),
		Execution:       metrics.SummarizeLatencies(c.execNanos),
		Disk:            c.disk.Stats(),
	}
	if c.firstArrival >= 0 && c.lastComplete > c.firstArrival {
		r.Makespan = time.Duration(c.lastComplete - c.firstArrival)
	}
	r.ThroughputPerSec = metrics.Throughput(r.Completed, r.Makespan)

	var busy int64
	for _, u := range c.units {
		st := u.buffer.Stats()
		r.CacheHits += st.Hits
		r.CacheMisses += st.Misses
		r.CacheEvictions += st.Evictions
		r.BytesLoaded += st.BytesLoaded
		r.TasksPerUnit = append(r.TasksPerUnit, int64(len(u.completions)))
		busy += u.busyNanos
	}
	if total := r.CacheHits + r.CacheMisses; total > 0 {
		r.HitRate = float64(r.CacheHits) / float64(total)
	}
	r.Imbalance = metrics.Imbalance(r.TasksPerUnit)
	if r.Makespan > 0 {
		r.MeanUtilization = float64(busy) / (float64(r.Makespan.Nanoseconds()) * float64(c.cfg.NumUnits))
	}
	return r
}

func (r Result) String() string {
	return fmt.Sprintf("%s P=%d: %d tasks in %v → %.1f tasks/s, hit-rate %.3f, imbalance %.2f, util %.2f",
		r.Scheduler, r.NumUnits, r.Completed, r.Makespan.Round(time.Millisecond),
		r.ThroughputPerSec, r.HitRate, r.Imbalance, r.MeanUtilization)
}
