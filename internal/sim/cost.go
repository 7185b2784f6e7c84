// Package sim is the deterministic discrete-event simulator of the
// paper's target platform (Figure 1): P processing units, each with a
// private LRU memory buffer, sharing one disk that serializes
// concurrent fetches. Traversal tasks stream in, a pluggable scheduler
// places them on unit queues, and each unit replays its task's data
// access trace against its cache and the shared disk in virtual time.
//
// Everything is driven by one event heap and a virtual clock, so a
// seed fully determines every reported number — the property the
// figure-reproduction harness relies on.
//
// A task's lifecycle is the live runtime's: it is admitted or rejected
// on arrival (Admission, the rule both executors share), and once
// admitted resolves exactly once, completed or — past its
// sched.Task.Deadline — timed out, so Result.Lifecycle conserves as
// the live counters do. With admission unbounded and no deadlines
// (the defaults) nothing is ever refused or dropped: the paper's
// model.
package sim

import (
	"fmt"

	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// CostModel fixes the virtual-time cost of every operation. All costs
// are in nanoseconds of virtual time.
type CostModel struct {
	// MemHitNanos is charged per record found in the unit's buffer.
	MemHitNanos int64
	// CPUVertexNanos is charged per vertex record processed
	// (predicate evaluation, bookkeeping).
	CPUVertexNanos int64
	// CPUEdgeNanos is charged per edge record processed.
	CPUEdgeNanos int64
	// CPUMissByteNanos is charged per byte fetched from disk, modeling
	// deserialization and (for image payloads) preprocessing — the
	// paper's "loading large size photo data and also performing some
	// image preprocessing".
	CPUMissByteNanos float64
	// Disk parameterizes the shared disk.
	Disk storage.DiskConfig
}

// DefaultCostModel returns a cost model in the spirit of the paper's
// platform: sub-microsecond buffer hits, millisecond-class shared-disk
// fetches — a ~3 orders of magnitude hit/miss gap, which is what makes
// locality-aware scheduling matter.
func DefaultCostModel() CostModel {
	disk := storage.DefaultDiskConfig()
	disk.Channels = 16 // enterprise array: misses contend, but scale to tens of units
	return CostModel{
		MemHitNanos:      500,
		CPUVertexNanos:   1_000,
		CPUEdgeNanos:     200,
		CPUMissByteNanos: 2,
		Disk:             disk,
	}
}

// Validate checks the model.
func (c CostModel) Validate() error {
	if c.MemHitNanos < 0 || c.CPUVertexNanos < 0 || c.CPUEdgeNanos < 0 || c.CPUMissByteNanos < 0 {
		return fmt.Errorf("sim: negative cost in %+v", c)
	}
	return c.Disk.Validate()
}

// Config parameterizes a cluster.
type Config struct {
	// NumUnits is the processing unit count P.
	NumUnits int
	// MemoryPerUnit is each unit's buffer budget in bytes; <= 0 means
	// unlimited (Figure 9's "unlimited" point).
	MemoryPerUnit int64
	// SignatureCap bounds each vertex's visit-signature list
	// (default: signature.DefaultCapacity).
	SignatureCap int
	// MaxQueuePerUnit is the dispatch depth target: the cluster admits
	// new tasks from the pending pool while some unit's effective load
	// is below it. Small values keep scheduling decisions close to
	// execution time so signatures stay fresh. Default 2.
	MaxQueuePerUnit int
	// Cost is the virtual-time cost model.
	Cost CostModel
	// SpeedFactors optionally degrades individual units: unit i's
	// compute and buffer-hit costs are multiplied by SpeedFactors[i]
	// (1 = nominal, 4 = four times slower). Disk time is shared and
	// unscaled. Empty means all units nominal. Models the
	// heterogeneous / partially-degraded deployments that make
	// workload balance adaptive rather than static.
	SpeedFactors []float64

	// BatchTraversals, when > 1, lets a unit pull up to that many
	// consecutive batchable queries (BFS/SSSP) off its queue and
	// advance them in lockstep, loading each wave-shared record once
	// (traverse.Batch). Per-query results stay bit-identical to
	// independent execution. At most traverse.MaxBatch; 0 or 1
	// disables.
	BatchTraversals int

	// MaxPending bounds admitted-but-unresolved tasks (pending pool
	// plus unit queues plus executing): an arrival past the bound is
	// rejected and never reaches the pending pool. 0 means unbounded —
	// the paper's service model, which refuses nothing, and what every
	// figure runs. (The live runtime shares the rule, Admission, but
	// not this default: its Config.MaxPending of 0 means
	// 2·NumUnits·QueueCap.)
	MaxPending int
	// TenantShare, when in (0, 1), caps one tenant's in-flight tasks
	// at ceil(TenantShare·MaxPending), minimum 1, as the live
	// runtime's Config.TenantShare does. 0 (or >= 1, or an unbounded
	// MaxPending) disables the per-tenant cap.
	TenantShare float64
}

// Validate checks the configuration, applying defaults for zero-valued
// optional fields.
func (c *Config) Validate() error {
	if c.NumUnits <= 0 {
		return fmt.Errorf("sim: NumUnits = %d, want > 0", c.NumUnits)
	}
	if c.MaxQueuePerUnit == 0 {
		c.MaxQueuePerUnit = 2
	}
	if c.MaxQueuePerUnit < 1 {
		return fmt.Errorf("sim: MaxQueuePerUnit = %d, want >= 1", c.MaxQueuePerUnit)
	}
	if c.SpeedFactors != nil && len(c.SpeedFactors) != c.NumUnits {
		return fmt.Errorf("sim: %d speed factors for %d units", len(c.SpeedFactors), c.NumUnits)
	}
	for i, f := range c.SpeedFactors {
		if f <= 0 {
			return fmt.Errorf("sim: speed factor %d = %g, want > 0", i, f)
		}
	}
	if c.BatchTraversals < 0 || c.BatchTraversals > traverse.MaxBatch {
		return fmt.Errorf("sim: BatchTraversals = %d, want [0, %d]", c.BatchTraversals, traverse.MaxBatch)
	}
	if c.MaxPending < 0 {
		return fmt.Errorf("sim: MaxPending = %d, want >= 0", c.MaxPending)
	}
	if c.TenantShare < 0 {
		return fmt.Errorf("sim: TenantShare = %g, want >= 0", c.TenantShare)
	}
	zero := CostModel{}
	if c.Cost == zero {
		c.Cost = DefaultCostModel()
	}
	return c.Cost.Validate()
}
