// Per-round snapshot-cache implementation of BuildAnchors.
//
// The scheduler's per-round cost used to be dominated by signature
// reads: scoring a batch of B tasks over P units with average degree d
// called signature.Table.LatestByProc once per (vertex, unit) pair —
// B·P·(1+d) shard-lock acquisitions, with the same ≤capacity-entry
// list rescanned P times per vertex and again for every task sharing a
// neighbor. This file replaces that with a per-round vertex snapshot
// cache: each vertex's signature list is read exactly once per round
// (one lock, one scan — Table.LatestAll), yielding a P-wide array of
// per-processor latest-visit timestamps that serves every unit and
// every task touching that vertex. Scratch buffers are pooled on the
// Scorer, so steady-state rounds allocate O(1): the returned Matrix's
// row headers and one flat entry arena — and nothing at all when the
// caller keeps its Matrix from round to round (BuildAnchorsInto).
//
// Determinism: rows are computed from immutable snapshots taken at a
// single clock reading and entries are emitted in ascending unit order
// — the output Matrix is bit-for-bit identical to
// BuildAnchorsReference's under a quiescent signature table.

package affinity

import (
	"math"

	"subtrav/internal/graph"
	"subtrav/internal/signature"
)

// roundScratch is the pooled per-round state of one BuildAnchors call.
type roundScratch struct {
	// snapRow maps a vertex to the number of its P-wide latest-visit
	// snapshot inside snapBuf: row r is snapBuf[r*P : (r+1)*P]. Row
	// numbers (not slices) are stored so the buffer can grow by
	// reallocation without invalidating the map, which is the kernels'
	// epoch-stamped dense map: emptying it for the next round is one
	// increment.
	snapRow graph.VertexMap
	snapBuf []int64

	// Per-unit quantities hoisted once per round: queue lengths and
	// memory budgets feed Eq. 3's churn exponent.
	queues []int
	mems   []int64

	// row is the scoring scratch of the task row being built.
	row rowScratch

	// spans records [start, end) of each row inside the entry arena.
	spans [][2]int

	// lastEntries remembers the previous round's total entry count so
	// a fresh arena is sized right in one allocation.
	lastEntries int
}

// rowScratch holds the P-wide accumulators used to score one task row.
type rowScratch struct {
	hits   []int32   // per-unit hit count over {v} ∪ Γ(v) (Eq. 1 numerator)
	latest []int64   // per-unit freshest visit among counted vertices (t_p)
	best   []float64 // per-unit best Eq. 2 score over the task's anchors
}

// newRoundScratch returns scratch for rounds over a graph of
// numVertices vertices.
func newRoundScratch(numVertices int) *roundScratch {
	return &roundScratch{snapRow: graph.NewVertexMap(numVertices)}
}

// reset prepares the scratch for a round over P units.
func (sc *roundScratch) reset(p int) {
	sc.snapRow.Clear()
	sc.snapBuf = sc.snapBuf[:0]
	sc.queues = growSlice(sc.queues, p)
	sc.mems = growSlice(sc.mems, p)
	sc.row.resize(p)
	sc.spans = sc.spans[:0]
}

func (rs *rowScratch) resize(p int) {
	rs.hits = growSlice(rs.hits, p)
	rs.latest = growSlice(rs.latest, p)
	rs.best = growSlice(rs.best, p)
}

// growSlice returns s with length n, reusing its backing array when
// large enough. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// snapshot returns the P-wide latest-visit array of v, reading the
// signature table (one lock, one scan) only on the first request of
// the round. v must be a vertex of the scorer's graph. Not safe for
// concurrent use.
func (sc *roundScratch) snapshot(sigs *signature.Table, v graph.VertexID, p int) []int64 {
	if row, ok := sc.snapRow.Get(v); ok {
		off := int(row) * p
		return sc.snapBuf[off : off+p]
	}
	off := len(sc.snapBuf)
	if cap(sc.snapBuf) < off+p {
		grown := make([]int64, off, 2*(off+p))
		copy(grown, sc.snapBuf)
		sc.snapBuf = grown
	}
	sc.snapBuf = sc.snapBuf[:off+p]
	out := sc.snapBuf[off : off+p]
	sigs.LatestAll(v, out)
	sc.snapRow.Put(v, int32(off/p))
	return out
}

// BuildAnchors builds the sparse affinity matrix for tasks identified
// by their anchor vertex sets: a task's score against
// a unit is the best Eq. 2 score over its anchors (bounded
// bidirectional SSSP anchors on both endpoints — its footprint is two
// balls, one around each endpoint). Each distinct vertex in the
// batch's anchor closure is read from the signature table exactly once
// per call regardless of the unit count or of how many tasks share it;
// see the package comment above for the full cost argument. Rows hold
// entries in ascending unit order and sub-slice one shared arena
// (capacity-capped, so appending to a row copies it). Equivalent to
// BuildAnchorsReference, at ≥P× fewer signature-lock acquisitions.
func (s *Scorer) BuildAnchors(anchors [][]graph.VertexID, units []UnitView) Matrix {
	var m Matrix
	s.BuildAnchorsInto(&m, anchors, units)
	return Matrix{NumUnits: m.NumUnits, Rows: m.Rows} // nobody builds into it again
}

// BuildAnchorsInto is BuildAnchors into a Matrix the caller keeps: m
// is overwritten, on the row headers and the entry arena of whatever
// it held before when they are large enough, so a scheduler that
// builds one matrix per round into the same Matrix allocates nothing
// in steady state. What m held before the call is invalid after it.
func (s *Scorer) BuildAnchorsInto(m *Matrix, anchors [][]graph.VertexID, units []UnitView) {
	m.NumUnits = len(units)
	m.Rows = growSlice(m.Rows, len(anchors))
	clear(m.Rows)
	if len(anchors) == 0 || len(units) == 0 {
		return
	}
	sc := s.scratch.Get().(*roundScratch)
	sc.reset(len(units))
	now := s.clock.Now()
	for p, unit := range units {
		sc.queues[p] = unit.QueueLen()
		sc.mems[p] = unit.MemoryBudget()
	}
	s.buildRows(m, anchors, units, sc, now)
	s.scratch.Put(sc)
}

// buildRows scores every task row, packing entries into m's arena — or
// into a fresh one sized from the previous round when m has none.
func (s *Scorer) buildRows(m *Matrix, anchors [][]graph.VertexID, units []UnitView, sc *roundScratch, now int64) {
	p := len(units)
	entries := m.arena[:0]
	if entries == nil {
		entries = make([]Entry, 0, max(sc.lastEntries, 16))
	}
	for _, vs := range anchors {
		s.bestScores(vs, units, sc, now)
		start := len(entries)
		for u := 0; u < p; u++ {
			if sc.row.best[u] > s.cfg.Eta {
				entries = append(entries, Entry{Unit: u, Benefit: sc.row.best[u]})
			}
		}
		sc.spans = append(sc.spans, [2]int{start, len(entries)})
	}
	sc.lastEntries = len(entries)
	m.arena = entries
	for i, sp := range sc.spans {
		if sp[1] > sp[0] {
			m.Rows[i] = entries[sp[0]:sp[1]:sp[1]]
		}
	}
}

// bestScores fills sc.row.best with each unit's best Eq. 2 score over the
// task's anchors: for every anchor it combines the anchor's snapshot
// with its neighbors' snapshots into per-unit hit counts (Eq. 1) and
// freshest timestamps (t_p), then applies the churn decay. Arithmetic
// mirrors Score/structuralAndLatest operation for operation so the
// result is bit-identical to the reference path.
func (s *Scorer) bestScores(vs []graph.VertexID, units []UnitView, sc *roundScratch, now int64) {
	p := len(units)
	rs := &sc.row
	for u := range rs.best {
		rs.best[u] = 0
	}
	for _, v := range vs {
		snapV := sc.snapshot(s.sigs, v, p)
		neighbors := s.g.Neighbors(v)
		for u := 0; u < p; u++ {
			if t := snapV[u]; t != signature.NoVisit {
				rs.hits[u] = 1
				rs.latest[u] = t
			} else {
				rs.hits[u] = 0
				rs.latest[u] = signature.NoVisit
			}
		}
		for _, nb := range neighbors {
			snapN := sc.snapshot(s.sigs, nb, p)
			for u := 0; u < p; u++ {
				if t := snapN[u]; t != signature.NoVisit {
					rs.hits[u]++
					if t > rs.latest[u] {
						rs.latest[u] = t
					}
				}
			}
		}
		denom := float64(1 + len(neighbors))
		for u := 0; u < p; u++ {
			if rs.hits[u] == 0 {
				continue
			}
			score := float64(rs.hits[u]) / denom * s.decayAt(now, rs.latest[u], sc.mems[u], sc.queues[u], units[u])
			if score > rs.best[u] {
				rs.best[u] = score
			}
		}
	}
}

// decayAt is decay (Eq. 2-3) with the round-invariant inputs — the
// clock reading, the unit's memory budget and queue length — hoisted
// out of the per-pair loop. Must stay arithmetically identical to
// Scorer.decay.
func (s *Scorer) decayAt(now, tp int64, mem int64, queue int, unit UnitView) float64 {
	if mem <= 0 {
		return 1 // unlimited memory: cached data never expires
	}
	if now <= tp {
		return 1
	}
	churned := queue + unit.CompletedSince(tp)
	if churned == 0 {
		return 1
	}
	exponent := float64(churned) * float64(s.cfg.AvgSubgraphBytes) / float64(mem)
	return math.Exp(-exponent)
}
