package experiments

import (
	"fmt"
	"slices"

	"subtrav"
	"subtrav/internal/sim"
)

// versus reads c under the baseline and under SCH.
func versus(r results, c cell) (base, sch sim.Result) {
	return r(c.with(subtrav.PolicyBaseline)), r(c.with(subtrav.PolicyAuction))
}

// Fig8 reproduces Figure 8: throughput of BFS, SSSP and image search
// for baseline vs the proposed scheduler (SCH), sweeping the number of
// processing units. Returns one table per application.
func Fig8(g *Grid) ([]*Table, error) {
	return view(g, func(r results) []*Table {
		var tables []*Table
		for _, w := range apps {
			t := &Table{
				Title:   fmt.Sprintf("Figure 8 (%s): throughput vs processing units", w.app),
				Columns: []string{"units", "baseline (q/s)", "SCH (q/s)", "speedup"},
			}
			var base, sch sim.Result
			for _, units := range g.cfg.UnitsSweep {
				base, sch = versus(r, g.at(w, units))
				t.AddRow(units, base.ThroughputPerSec, sch.ThroughputPerSec, speedup(sch, base))
			}
			t.Notes = []string{
				fmt.Sprintf("%d queries, per-unit memory %d MiB", base.Lifecycle.Submitted, g.cfg.memory(w)>>20),
				"paper shape: both scale with units; SCH ≥ baseline, peak ≈1.6x (BFS), ≈1.5x (SSSP), ≈2.1x (image)",
			}
			tables = append(tables, t)
		}
		return tables
	})
}

// Fig9 reproduces Figure 9: memory-capacity sensitivity at the largest
// unit count. The paper sweeps 4/8/16 GB and unlimited per-unit
// buffers; the simulator sweeps {½×, 1×, 2×, unlimited} of the
// configured budget — the same four-point shape with a documented
// scale factor.
func Fig9(g *Grid) ([]*Table, error) {
	units := g.cfg.maxUnits()
	return view(g, func(r results) []*Table {
		var tables []*Table
		for _, w := range apps {
			c := g.at(w, units)
			labels := []string{"0.5x", "1x", "2x", "unlimited"}
			memories := []int64{c.memory / 2, c.memory, c.memory * 2, 0}
			t := &Table{
				Title:   fmt.Sprintf("Figure 9 (%s): memory sensitivity at %d units", w.app, units),
				Columns: []string{"memory", "baseline (q/s)", "SCH (q/s)", "baseline/max", "SCH/max"},
				Notes: []string{
					fmt.Sprintf("memory points map the paper's 4/8/16GB/unlimited sweep; 1x = %d MiB per unit", memories[1]>>20),
					"paper shape: baseline gains >100% from unlimited memory; SCH reaches ≈80% of max at the 8GB-equivalent point",
				},
			}
			var base, sch []float64
			for _, memory := range memories {
				c.memory = memory
				b, s := versus(r, c)
				base, sch = append(base, b.ThroughputPerSec), append(sch, s.ThroughputPerSec)
			}
			for i, label := range labels {
				t.AddRow(label, base[i], sch[i],
					fmt.Sprintf("%.0f%%", 100*ratio(base[i], slices.Max(base))),
					fmt.Sprintf("%.0f%%", 100*ratio(sch[i], slices.Max(sch))))
			}
			tables = append(tables, t)
		}
		return tables
	})
}

// Fig10 reproduces Figure 10: speedup of concurrent BFS under SCH over
// the single-unit run, against the linear ideal.
func Fig10(g *Grid) (*Table, error) {
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   "Figure 10: BFS speedup vs sequential (SCH)",
			Columns: []string{"units", "throughput (q/s)", "speedup", "linear"},
			Notes: []string{
				"paper shape: sublinear but monotonically increasing (partitioned memory + shared-disk contention)",
			},
		}
		var single float64
		for _, units := range g.cfg.UnitsSweep {
			res := r(g.at(bfs, units).with(subtrav.PolicyAuction))
			if single == 0 {
				single = res.ThroughputPerSec
			}
			t.AddRow(units, res.ThroughputPerSec,
				fmt.Sprintf("%.2fx", ratio(res.ThroughputPerSec, single)),
				fmt.Sprintf("%dx", units))
		}
		return t
	})
}

// Fig11 reproduces Figure 11: the impact of topology — the Twitter-like
// power-law graph vs the degree-balanced random graph — on BFS
// throughput, for both schedulers at the largest unit count.
func Fig11(g *Grid) (*Table, error) {
	units := g.cfg.maxUnits()
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   fmt.Sprintf("Figure 11: topology impact on BFS throughput at %d units", units),
			Columns: []string{"graph", "baseline (q/s)", "SCH (q/s)", "SCH/baseline"},
			Notes: []string{
				"paper shape: power-law throughput > random-graph throughput; improvement over baseline larger on the random graph",
			},
		}
		for _, name := range []string{"twitter-like", "random"} {
			c := g.at(workloadKey{app: bfs.app, random: name == "random", seed: 11}, units)
			base, sch := versus(r, c)
			t.AddRow(name, base.ThroughputPerSec, sch.ThroughputPerSec, speedup(sch, base))
		}
		return t
	})
}

// Fig12 reproduces Figure 12: the percentage improvement of SCH over
// the baseline per application across the unit sweep, with the
// worst/mean/best summary the paper quotes (BFS up to 51.9%, SSSP
// ≈50%, image search >2x on average).
func Fig12(g *Grid) (*Table, error) {
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   "Figure 12: improvement of SCH over baseline",
			Columns: []string{"app", "min", "mean", "max"},
			Notes: []string{
				"improvement = (SCH - baseline) / baseline, across the multi-unit sweep",
				"paper: BFS up to 51.9% (worst 48%), SSSP up to 50% (worst 46%), image search >2x mean",
			},
		}
		for _, w := range apps {
			var imps []float64
			for _, units := range g.cfg.UnitsSweep {
				if units == 1 {
					continue // no scheduling freedom with one unit
				}
				base, sch := versus(r, g.at(w, units))
				imps = append(imps, 100*(ratio(sch.ThroughputPerSec, base.ThroughputPerSec)-1))
			}
			min, mean, max := summarize(imps)
			t.AddRow(w.app,
				fmt.Sprintf("%.1f%%", min),
				fmt.Sprintf("%.1f%%", mean),
				fmt.Sprintf("%.1f%%", max))
		}
		return t
	})
}

// speedup formats a's throughput over b's.
func speedup(a, b sim.Result) string {
	return fmt.Sprintf("%.2fx", ratio(a.ThroughputPerSec, b.ThroughputPerSec))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func summarize(xs []float64) (min, mean, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min, max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, sum / float64(len(xs)), max
}
