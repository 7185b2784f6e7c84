// Package sched implements the task-placement policies compared in
// the paper: the proposed auction-based balance-affinity scheduler
// (Figure 6 pipeline: signatures → workload-aware affinity matrix →
// incremental auction → dispatch), the paper's baseline (random unit,
// FCFS queues), and ablation policies that isolate each ingredient
// (affinity-only, balance-only, round-robin).
package sched

import (
	"fmt"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/traverse"
	"subtrav/internal/xrand"
)

// Task is one subgraph traversal query flowing through the system.
type Task struct {
	// ID is unique per run, in arrival order.
	ID int64
	// Query describes the traversal.
	Query traverse.Query
	// Arrival is the virtual time the query entered the system.
	Arrival int64
	// Tenant attributes the query for per-tenant admission and
	// accounting ("" = the default bucket). Placement ignores it.
	Tenant string
	// Deadline, when positive, is the virtual time past which the
	// executor stops working for the query and resolves it as timed
	// out (0 = none). Placement ignores it.
	Deadline int64
}

// UnitState is the scheduler's live view of one processing unit. It
// extends the affinity view with execution state.
type UnitState interface {
	affinity.UnitView
	// Busy reports whether the unit is currently executing a task.
	Busy() bool
}

// Scheduler maps a batch of tasks onto units. Assign returns one unit
// index per task (never -1: every policy must place every task it is
// shown — refusing work is admission's decision, taken before a task
// reaches the pending pool, and the paper's service model has none).
// Implementations may keep state across calls (prices, RNG, per-round
// scratch), so a Scheduler instance must not be shared between
// concurrent clusters, and Assign is never called concurrently.
//
// Ownership: the returned slice (and an Explainer's []Explain) is
// freshly allocated and the caller's to keep — an executor may still
// be reading one round's placement when it starts the next. The tasks
// are the scheduler's to read only until Assign returns: callers
// rebuild the list in place for their next round.
type Scheduler interface {
	Name() string
	Assign(tasks []*Task, units []UnitState) []int
}

// leastLoadedIndex returns the unit with the shortest queue, counting
// extra tasks already placed in this batch; idle units win ties,
// lower index breaks remaining ties (deterministic).
func leastLoadedIndex(units []UnitState, extra []int) int {
	best := 0
	bestLoad := load(units[0], extra[0])
	for i := 1; i < len(units); i++ {
		if l := load(units[i], extra[i]); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// load is the effective queue length of a unit: queued tasks, plus the
// one executing, plus tasks assigned earlier in the same batch.
func load(u UnitState, extra int) int {
	l := u.QueueLen() + extra
	if u.Busy() {
		l++
	}
	return l
}

// Baseline is the paper's comparison system: an incoming query goes to
// a randomly selected free unit; if none is free, it is appended to an
// arbitrary (random) unit's queue. Queues drain FCFS.
type Baseline struct {
	rng *xrand.RNG
}

// NewBaseline creates the random/FCFS baseline scheduler.
func NewBaseline(seed uint64) *Baseline {
	return &Baseline{rng: xrand.New(seed)}
}

// Name implements Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// Assign implements Scheduler.
func (b *Baseline) Assign(tasks []*Task, units []UnitState) []int {
	out := make([]int, len(tasks))
	extra := make([]int, len(units))
	for t := range tasks {
		var free []int
		for i, u := range units {
			if !u.Busy() && load(u, extra[i]) == 0 {
				free = append(free, i)
			}
		}
		var pick int
		if len(free) > 0 {
			pick = free[b.rng.Intn(len(free))]
		} else {
			pick = b.rng.Intn(len(units))
		}
		out[t] = pick
		extra[pick]++
	}
	return out
}

// RoundRobin cycles through units regardless of load or affinity.
type RoundRobin struct {
	next int
}

// NewRoundRobin creates a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Assign implements Scheduler.
func (r *RoundRobin) Assign(tasks []*Task, units []UnitState) []int {
	out := make([]int, len(tasks))
	for t := range tasks {
		out[t] = r.next
		r.next = (r.next + 1) % len(units)
	}
	return out
}

// LeastLoaded is the balance-only ablation: every task goes to the
// unit with the shortest effective queue, ignoring data locality.
type LeastLoaded struct{}

// NewLeastLoaded creates a balance-only scheduler.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Scheduler.
func (l *LeastLoaded) Name() string { return "least-loaded" }

// Assign implements Scheduler.
func (l *LeastLoaded) Assign(tasks []*Task, units []UnitState) []int {
	out := make([]int, len(tasks))
	extra := make([]int, len(units))
	for t := range tasks {
		pick := leastLoadedIndex(units, extra)
		out[t] = pick
		extra[pick]++
	}
	return out
}

// validateBatch panics on empty unit sets — a programming error, the
// cluster always has P >= 1 units.
func validateBatch(units []UnitState) {
	if len(units) == 0 {
		panic(fmt.Sprintf("sched: Assign with %d units", len(units)))
	}
}

// appendAnchors appends the affinity anchor vertices of a task to dst:
// the traversal start, plus the target for bidirectional SSSP (whose
// footprint is a ball around each endpoint).
func appendAnchors(dst []graph.VertexID, t *Task) []graph.VertexID {
	dst = append(dst, t.Query.Start)
	if t.Query.Op == traverse.OpSSSP && t.Query.Target != t.Query.Start {
		dst = append(dst, t.Query.Target)
	}
	return dst
}
