package experiments

import (
	"fmt"

	"subtrav"
)

// Heterogeneous is an extension experiment: one quarter of the units
// run 4x slower (a degraded rack, a noisy neighbor). Static policies
// (round-robin, random) keep feeding the slow units; queue-aware
// policies route around them because slow units drain slower and Eq. 4
// (or join-shortest-queue) makes long queues unattractive. The table
// reports throughput and the slow units' share of completed work.
func Heterogeneous(g *Grid) (*Table, error) {
	// A compute-bound regime (few units, unlimited buffers) so the 4x
	// CPU degradation is visible; at high unit counts the shared disk
	// dominates and per-unit speed stops mattering.
	units := min(8, g.cfg.maxUnits())
	slowCount := max(units/4, 1)
	fairShare := float64(slowCount) / (float64(slowCount) + 4*float64(units-slowCount)) // perf-proportional
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   fmt.Sprintf("Extension: heterogeneous units (%d of %d run 4x slower)", slowCount, units),
			Columns: []string{"policy", "throughput (q/s)", "slow-unit share", "fair share"},
			Notes: []string{
				"queue-aware policies should give slow units less work; static ones overload them",
			},
		}
		c := cell{w: bfs, units: units, slow: slowCount} // memory 0: unlimited, compute-bound
		cold := c.with(subtrav.PolicyAuction)
		cold.cold = 0.1
		labels, cells := []string{"sch+cold"}, []cell{cold}
		for _, p := range subtrav.Policies() {
			labels, cells = append(labels, string(p)), append(cells, c.with(p))
		}
		for i, c := range cells {
			res := r(c)
			var slow, total int64
			for u, n := range res.TasksPerUnit {
				total += n
				if u < slowCount {
					slow += n
				}
			}
			t.AddRow(labels[i], res.ThroughputPerSec,
				fmt.Sprintf("%.1f%%", 100*ratio(float64(slow), float64(total))),
				fmt.Sprintf("%.1f%%", 100*fairShare))
		}
		t.Notes = append(t.Notes,
			"pure affinity sticks to a task's (possibly degraded) home unit; the cold-start escape arc lets hot queues spill to faster idle units",
			"with unlimited buffers locality is free, so balance-only wins this regime outright — the other pole of the balance-affinity tradeoff")
		return t
	})
}
