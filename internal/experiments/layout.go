package experiments

import (
	"fmt"

	"subtrav"
)

// PartitionedLayout is an extension experiment for the shared-disk
// layout model: graph records are stored partition-contiguously, so
// runs of same-partition reads pay a reduced seek
// (storage.DiskConfig.PartitionLocality). Affinity scheduling clusters
// a unit's reads inside few partitions, so it converts more of its
// misses into cheap local seeks than random placement does — layout
// locality compounds with cache locality.
func PartitionedLayout(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	units := cfg.maxUnits()
	// The image corpus is the natural fit: it ships with the paper's
	// 45 partitions (person clusters grouped), and an image query's
	// misses land inside one cluster — exactly the run structure a
	// partition-contiguous layout rewards.
	a := imageApp()
	pg, tasks, err := a.build(cfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("Extension: partition-contiguous disk layout (image search, %d units, %d partitions)", units, pg.NumPartitions()),
		Columns: []string{"layout locality", "baseline (q/s)", "SCH (q/s)", "SCH local seeks", "SCH/baseline"},
		Notes: []string{
			"locality = same-partition seek cost multiplier (1.0: layout-oblivious disk)",
			"expected: affinity scheduling benefits more from layout locality (its reads cluster by partition)",
		},
	}
	for _, locality := range []float64{1.0, 0.25} {
		cost := cfg.Cost
		cost.Disk.PartitionLocality = locality
		runCfg := cfg
		runCfg.Cost = cost
		base, err := runCfg.runOn(pg, tasks, units, a.memory(cfg), subtrav.PolicyBaseline)
		if err != nil {
			return nil, err
		}
		sch, err := runCfg.runOn(pg, tasks, units, a.memory(cfg), subtrav.PolicyAuction)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", locality),
			base.ThroughputPerSec, sch.ThroughputPerSec,
			fmt.Sprintf("%d/%d", sch.Disk.LocalSeeks, sch.Disk.Requests),
			fmt.Sprintf("%.2fx", ratio(sch.ThroughputPerSec, base.ThroughputPerSec)))
	}
	return t, nil
}
