package experiments

import (
	"fmt"
	"time"

	"subtrav"
)

// LatencyUnderLoad is an extension beyond the paper's closed-loop
// throughput figures: an *open-system* measurement on the image-search
// workload. Queries arrive as a Poisson stream at increasing rates;
// the table reports tail latency per scheduler. The shape to expect is
// the classic queueing hockey-stick — and SCH's higher effective
// service rate (fewer photo fetches) pushes its knee to higher
// arrival rates. The cold-start escape arc (ColdScore) bounds the
// queueing that pure affinity routing adds at light load by letting
// overloaded clusters spill to idle units.
func LatencyUnderLoad(g *Grid) (*Table, error) {
	units := g.cfg.maxUnits()
	// Estimate the system's saturation throughput from a closed-loop
	// run, then sweep arrival rates as fractions of it.
	sat, err := view(g, func(r results) float64 {
		return r(g.at(image, units).with(subtrav.PolicyAuction)).ThroughputPerSec
	})
	if err != nil {
		return nil, err
	}
	if sat <= 0 {
		return nil, fmt.Errorf("experiments: saturation run produced no throughput")
	}
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   fmt.Sprintf("Extension: open-system latency vs load (image search, %d units)", units),
			Columns: []string{"load", "rate (q/s)", "baseline p95", "SCH p95", "SCH+cold p95", "SCH+cold thpt"},
			Notes: []string{
				fmt.Sprintf("rates are fractions of the measured SCH saturation throughput (%.1f q/s)", sat),
				"expected shape: the baseline's latency hockey-sticks well before SCH's (its effective service rate is lower)",
				"SCH+cold adds the cold-start escape arc (sched.AuctionConfig.ColdScore), trimming the tail at light load where pure affinity routing briefly serializes cluster-mates",
			},
		}
		for _, frac := range []float64{0.3, 0.6, 0.8, 0.95} {
			rate := frac * sat
			c := g.at(workloadKey{app: image.app, seed: 7, rate: rate}, units)
			base, sch := versus(r, c)
			c.cold = 0.1
			cold := r(c.with(subtrav.PolicyAuction))
			t.AddRow(fmt.Sprintf("%.0f%%", 100*frac), rate,
				base.Latency.P95.Round(time.Millisecond).String(),
				sch.Latency.P95.Round(time.Millisecond).String(),
				cold.Latency.P95.Round(time.Millisecond).String(),
				cold.ThroughputPerSec)
		}
		return t
	})
}
