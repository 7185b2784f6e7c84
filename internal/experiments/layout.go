package experiments

import "fmt"

// PartitionedLayout is an extension experiment for the shared-disk
// layout model: graph records are stored partition-contiguously, so
// runs of same-partition reads pay a reduced seek
// (storage.DiskConfig.PartitionLocality). Affinity scheduling clusters
// a unit's reads inside few partitions, so it converts more of its
// misses into cheap local seeks than random placement does — layout
// locality compounds with cache locality.
func PartitionedLayout(g *Grid) (*Table, error) {
	units := g.cfg.maxUnits()
	// The image corpus is the natural fit: it ships with the paper's
	// 45 partitions (person clusters grouped), and an image query's
	// misses land inside one cluster — exactly the run structure a
	// partition-contiguous layout rewards.
	pg, err := g.graph(image)
	if err != nil {
		return nil, err
	}
	return view(g, func(r results) *Table {
		t := &Table{
			Title:   fmt.Sprintf("Extension: partition-contiguous disk layout (image search, %d units, %d partitions)", units, pg.NumPartitions()),
			Columns: []string{"layout locality", "baseline (q/s)", "SCH (q/s)", "SCH local seeks", "SCH/baseline"},
			Notes: []string{
				"locality = same-partition seek cost multiplier (1.0: layout-oblivious disk)",
				"expected: affinity scheduling benefits more from layout locality (its reads cluster by partition)",
			},
		}
		for _, locality := range []float64{1.0, 0.25} {
			c := g.at(image, units)
			c.layout = locality
			base, sch := versus(r, c)
			t.AddRow(fmt.Sprintf("%.2f", locality),
				base.ThroughputPerSec, sch.ThroughputPerSec,
				fmt.Sprintf("%d/%d", sch.Disk.LocalSeeks, sch.Disk.Requests),
				speedup(sch, base))
		}
		return t
	})
}
