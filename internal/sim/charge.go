package sim

import (
	"subtrav/internal/cache"
	"subtrav/internal/obs"
	"subtrav/internal/traverse"
)

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

	// Hits and Misses count the accesses consumed so far; BytesRead is
	// the total size of the records filled.
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

// FillSpan copies the counts so far into s's execution detail — the
// one place either executor turns a charge into span fields.
func (c *ChargeCursor) FillSpan(s *obs.Span) {
	s.CacheHits = c.Hits
	s.CacheMisses = c.Misses
	s.BytesRead = c.BytesRead
}
