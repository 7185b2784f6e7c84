package experiments

import (
	"fmt"
	"subtrav"
	"subtrav/internal/affinity"
)

// SignatureCapacity ablates the per-vertex visit-signature list length
// L(v) (Section IV-A: "the list can be kept short, say 10 entries per
// vertex"). Short lists forget visitors quickly and weaken affinity;
// long lists cost memory and retain stale visitors that the decay term
// must discount.
func SignatureCapacity(g *Grid) (*Table, error) {
	units := g.cfg.maxUnits()
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   fmt.Sprintf("Parameter: signature list capacity L(v) (BFS, %d units, SCH)", units),
			Columns: []string{"capacity", "throughput (q/s)", "hit rate"},
			Notes: []string{
				"the paper suggests ~10 entries per vertex; capacity 1 remembers only the latest visitor",
			},
		}
		for _, capEntries := range []int{1, 2, 5, 10, 20} {
			c := g.at(bfs, units).with(subtrav.PolicyAuction)
			c.sigCap = capEntries
			res := r(c)
			t.AddRow(capEntries, res.ThroughputPerSec, fmt.Sprintf("%.3f", res.HitRate))
		}
		return t
	})
}

// EtaThreshold ablates the affinity threshold η (Section IV-B: an edge
// (G, p) exists in the bipartite graph only when s_{v→p} > η). Low η
// admits noisy weak affinities into the auction; high η starves it and
// pushes tasks to the least-loaded fallback.
func EtaThreshold(g *Grid) (*Table, error) {
	units := g.cfg.maxUnits()
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   fmt.Sprintf("Parameter: affinity threshold η (BFS, %d units, SCH)", units),
			Columns: []string{"eta", "throughput (q/s)", "hit rate"},
			Notes: []string{
				"η gates bipartite edges; at high η SCH degenerates to least-loaded placement",
			},
		}
		for _, eta := range []float64{0, 0.01, 0.05, 0.2, 0.5} {
			c := g.at(bfs, units).with(subtrav.PolicyAuction)
			c.aff = affinity.DefaultConfig()
			c.aff.Eta = eta
			res := r(c)
			t.AddRow(fmt.Sprintf("%.2f", eta), res.ThroughputPerSec, fmt.Sprintf("%.3f", res.HitRate))
		}
		return t
	})
}
