package sim

import (
	"subtrav/internal/cache"
	"subtrav/internal/graph"
	"subtrav/internal/traverse"
)

// Execute runs the kernels of a unit's members, sets each one's Result
// and Trace, and returns the trace the unit pays for: a solo member's
// own, run on ws, or the shared wave trace of one lockstep batch run
// (each wave-shared record loaded once — see traverse.Batch), whose
// per-member results are identical to independent execution. What it
// sets is ws's or batch's, valid until their next run. batch is read
// only for more than one member: the live runtime, which dequeues one
// query at a time, passes nil.
func Execute[T jobber](g *graph.Graph, ws *traverse.Workspace, batch *traverse.Batch, members []T) (replay *traverse.Trace, err error) {
	if len(members) == 1 {
		j := members[0].job()
		j.Result, replay, err = traverse.ExecuteIn(ws, g, j.Task.Query)
		j.Trace = replay
		return replay, err
	}
	queries := make([]traverse.Query, len(members))
	for i, t := range members {
		queries[i] = t.job().Task.Query
	}
	results, traces, replay, err := batch.Run(g, queries)
	for i, t := range members[:len(results)] {
		t.job().Result, t.job().Trace = results[i], traces[i]
	}
	return replay, err
}

// ChargeCursor replays one access trace against one unit's buffer for
// its virtual cost. It is the single copy of the paper's executor rule
// — "a traversal emits its access trace; the unit replays it against
// its buffer and the shared disk" — under both the simulator's event
// loop and the live runtime's worker: record-key derivation, the hit
// and miss cost formulas and the hit/miss/byte counts live here and
// nowhere else. The shared disk is the one thing the executors model
// differently (a virtual-time service queue; a semaphore and a scaled
// sleep), so the cursor is driven in two strokes: RunHits consumes
// buffer hits up to the next miss without consuming it, the executor
// pays the fetch for Miss its own way, and Fill loads the record.
//
// A cursor is a plain value: the simulator keeps one in the unit's
// execution state across heap events, the live runtime on the
// worker's stack for the length of a charge.
type ChargeCursor struct {
	cost     *CostModel
	buffer   *cache.Cache
	speed    float64
	accesses []traverse.Access
	pos      int

	Charge // what the cursor has consumed so far
}

// Charge counts what a charge did on behalf of the members paying it:
// Hits and Misses the accesses consumed, BytesRead the total size of
// the records filled.
type Charge struct {
	Hits, Misses int
	BytesRead    int64
}

// NewChargeCursor positions a cursor at the head of trace. speed
// multiplies the unit's compute and buffer-hit costs (1 = nominal; see
// Config.SpeedFactors); it is applied to each access separately and
// truncated, so a run of hits costs the same whether it is consumed in
// one RunHits call or several.
func NewChargeCursor(cost *CostModel, buffer *cache.Cache, speed float64, trace *traverse.Trace) ChargeCursor {
	return ChargeCursor{cost: cost, buffer: buffer, speed: speed, accesses: trace.Accesses}
}

// cpuNanos charges the record processing plus the adjacency entries
// scanned while holding it.
func (c *ChargeCursor) cpuNanos(a traverse.Access) int64 {
	return c.cost.CPUVertexNanos + int64(a.ScannedEdges)*c.cost.CPUEdgeNanos
}

// RunHits consumes consecutive buffer hits from the cursor position
// and returns their summed virtual cost. It stops at the first access
// whose record is not resident, leaving it unconsumed, or at the end
// of the trace.
//
//vet:hotpath
func (c *ChargeCursor) RunHits() (virtualNanos int64) {
	for c.pos < len(c.accesses) {
		a := c.accesses[c.pos]
		if !c.buffer.Hit(cache.VertexKey(int32(a.Vertex)), int64(a.Bytes)) {
			break
		}
		virtualNanos += int64(float64(c.cost.MemHitNanos+c.cpuNanos(a)) * c.speed)
		c.Hits++
		c.pos++
	}
	return virtualNanos
}

// Done reports whether the whole trace has been consumed.
func (c *ChargeCursor) Done() bool { return c.pos == len(c.accesses) }

// Miss returns the access the cursor is stopped at: after RunHits on a
// cursor that is not Done, the record the executor must fetch.
func (c *ChargeCursor) Miss() traverse.Access { return c.accesses[c.pos] }

// Fill consumes the access the cursor is stopped at as a miss whose
// fetch the executor has paid: the record is loaded (evicting past the
// budget) and the local work after a fetch — processing the record
// plus per-byte deserialization — is returned.
//
//vet:hotpath
func (c *ChargeCursor) Fill() (virtualNanos int64) {
	a := c.accesses[c.pos]
	c.buffer.Access(cache.VertexKey(int32(a.Vertex)), int64(a.Bytes))
	c.Misses++
	c.BytesRead += int64(a.Bytes)
	c.pos++
	localWork := float64(c.cpuNanos(a)) + c.cost.CPUMissByteNanos*float64(a.Bytes)
	return int64(localWork * c.speed)
}
