// Package signature implements the vertex visit-signature machinery of
// Section IV-A: a global steady timer and, for each graph vertex v, a
// short list L(v) of (timestamp, processor) pairs recording which
// processing units recently visited v. The affinity scorer reads these
// lists to decide whether a subgraph traversal is likely to find its
// data cached on a given unit.
package signature

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/graph"
)

// Clock yields monotically non-decreasing timestamps in nanoseconds.
// The discrete-event simulator supplies virtual time; the live runtime
// supplies wall time.
type Clock interface {
	Now() int64
}

// WallClock reads the machine's monotonic clock.
type WallClock struct{}

// Now returns the current wall time in nanoseconds.
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// ManualClock is an explicitly advanced clock, used by the simulator
// and by tests. Safe for concurrent use.
type ManualClock struct {
	t atomic.Int64
}

// Now returns the current virtual time.
func (c *ManualClock) Now() int64 { return c.t.Load() }

// Set moves the clock to t; it never moves backwards.
func (c *ManualClock) Set(t int64) {
	for {
		cur := c.t.Load()
		if t <= cur || c.t.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Advance moves the clock forward by d nanoseconds and returns the new
// time.
func (c *ManualClock) Advance(d int64) int64 { return c.t.Add(d) }

// Reset forcibly rewinds the clock to 0 — the one sanctioned backwards
// move, used when a simulator reuses its clock across independent
// runs. Never call it while readers are active.
func (c *ManualClock) Reset() { c.t.Store(0) }

// Entry is one visit record: processor proc touched the vertex at the
// given timestamp.
type Entry struct {
	Time int64
	Proc int32
}

// DefaultCapacity is the per-vertex signature list length suggested by
// the paper ("the list can be kept short, say 10 entries per vertex").
const DefaultCapacity = 10

// Table stores the signature lists of all vertices. Vertex IDs are
// dense CSR indices, so nothing here hashes one: the table is striped
// by the low bits of the ID and each stripe keeps the lists of its
// vertices as fixed-width rows of one flat array, indexed by the
// remaining bits. It is safe for concurrent use: traversal engines
// record visits while the scheduler reads affinities.
type Table struct {
	capacity int
	stripes  [numStripes]stripe
	// scratch pools RecordTrace's bucketing buffers: *[]int32, the
	// local indices of one trace grouped by stripe.
	scratch sync.Pool
}

// Vertex v lives in stripe v & stripeMask at local index v >> stripeBits.
const (
	stripeBits = 6
	numStripes = 1 << stripeBits
	stripeMask = numStripes - 1
)

// stripe holds L(v) for every v ≡ k (mod numStripes): the list of local
// index i is rows[i*capacity : i*capacity+n[i]], oldest first. Both
// arrays cover the same local indices and grow together, by doubling,
// under the write lock, the first time a vertex beyond them is
// recorded; a vertex beyond them has an empty list.
type stripe struct {
	mu   sync.RWMutex
	rows []Entry
	n    []int32
	// used counts the local indices with a non-empty list.
	used int
	// locks counts mutex acquisitions (read or write) on this stripe's
	// hot-path operations. Per-stripe atomics avoid a single contended
	// cache line; Table.LockAcquisitions sums them. The counter feeds
	// the scheduler hot-path benchmarks (internal/schedbench), which
	// assert that the batched LatestAll path takes P× fewer locks than
	// per-proc LatestByProc scans, and RecordTrace one per stripe.
	locks atomic.Int64
}

// NewTable creates a table keeping at most capacity entries per vertex
// (DefaultCapacity if capacity <= 0). It takes no vertex count: stripes
// size themselves to the largest vertex recorded.
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Table{capacity: capacity}
	t.scratch.New = func() any { return new([]int32) }
	return t
}

// Capacity returns the per-vertex entry limit.
func (t *Table) Capacity() int { return t.capacity }

// locate returns v's stripe and its local index there. A negative v
// maps to an index no stripe ever covers, so it reads as never visited;
// the writers refuse it (badVertex).
func (t *Table) locate(v graph.VertexID) (*stripe, int) {
	return &t.stripes[uint32(v)&stripeMask], int(uint32(v) >> stripeBits)
}

// list returns the live part of local index i's row: empty beyond the
// grown range. The caller holds the stripe's lock.
func (s *stripe) list(i, capacity int) []Entry {
	if i >= len(s.n) {
		return nil
	}
	return s.rows[i*capacity : i*capacity+int(s.n[i])]
}

// grow extends the stripe to cover local index i, at least doubling it
// (and to no fewer than 16 rows). The caller holds the write lock.
func (s *stripe) grow(i, capacity int) {
	size := max(2*len(s.n), i+1, 16)
	n := make([]int32, size)
	copy(n, s.n)
	rows := make([]Entry, size*capacity)
	copy(rows, s.rows)
	s.n, s.rows = n, rows
}

// badVertex is the writers' panic for a negative vertex, which would
// otherwise ask grow for a row 2^25 indices out.
func badVertex(v graph.VertexID) {
	panic(fmt.Sprintf("signature: negative vertex %d", v))
}

// insert runs Record's list update on local index i's row in place.
// The caller holds the write lock and has grown the stripe to cover i.
//
//vet:hotpath
func (s *stripe) insert(i, capacity int, e Entry) {
	row := s.rows[i*capacity : (i+1)*capacity]
	n := int(s.n[i])
	if n == capacity {
		if e.Time < row[0].Time {
			return
		}
		copy(row, row[1:])
		n--
	} else {
		if n == 0 {
			s.used++
		}
		s.n[i]++
	}
	row[n] = e
	for j := n; j > 0 && row[j-1].Time > row[j].Time; j-- {
		row[j-1], row[j] = row[j], row[j-1]
	}
}

// Record inserts the visit (now, proc) into L(v), keeping the list
// ordered by time and evicting the oldest entry when it is full. The
// global clock is steady, but live-runtime units race on reading it,
// so records for one vertex can arrive slightly out of order; a new
// record therefore insertion-sorts into the tail (lists hold at most
// capacity ≈ 10 entries, so this is O(capacity)). Keeping the list
// time-ordered is what lets LatestByProc's newest-first scan return
// the true maximum — the t_p of Eq. 2 — instead of a stale timestamp.
// A record older than every entry of a full list is already outside
// the "capacity most recent visits" window and is dropped. A negative
// v panics.
func (t *Table) Record(v graph.VertexID, proc int32, now int64) {
	if v < 0 {
		badVertex(v)
	}
	s, i := t.locate(v)
	s.mu.Lock()
	s.locks.Add(1)
	if i >= len(s.n) {
		s.grow(i, t.capacity)
	}
	s.insert(i, t.capacity, Entry{Time: now, Proc: proc})
	s.mu.Unlock()
}

// bucketMin is the shortest trace RecordTrace buckets by stripe: two
// vertices per stripe, below which one lock per stripe saves too few
// acquisitions to pay for the counting sort.
const bucketMin = 2 * numStripes

// RecordTrace signs one completed traversal into the table: it is
// Record(v, proc, now) for every v of touched, in order, with each
// stripe's lock taken once instead of once per vertex. Lists are per
// vertex and a stripe's vertices keep their order, so the table ends
// up exactly as the loop would leave it (a vertex listed twice is
// recorded twice).
func (t *Table) RecordTrace(touched []graph.VertexID, proc int32, now int64) {
	if len(touched) < bucketMin {
		for _, v := range touched {
			t.Record(v, proc, now)
		}
		return
	}
	buf := t.scratch.Get().(*[]int32)
	if cap(*buf) < len(touched) {
		*buf = make([]int32, len(touched))
	}
	t.recordBucketed(touched, (*buf)[:len(touched)], Entry{Time: now, Proc: proc})
	t.scratch.Put(buf)
}

// recordBucketed counting-sorts touched's local indices by stripe into
// local (stable) and inserts e stripe by stripe.
//
//vet:hotpath
func (t *Table) recordBucketed(touched []graph.VertexID, local []int32, e Entry) {
	// end[k] is first the size of stripe k's bucket, then its start,
	// and once the scatter has filled the bucket, its end.
	var end [numStripes]int32
	for _, v := range touched {
		if v < 0 {
			badVertex(v)
		}
		end[uint32(v)&stripeMask]++
	}
	sum := int32(0)
	for k, size := range end {
		end[k] = sum
		sum += size
	}
	for _, v := range touched {
		k := uint32(v) & stripeMask
		local[end[k]] = int32(uint32(v) >> stripeBits)
		end[k]++
	}
	start := int32(0)
	for k := range t.stripes {
		bucket := local[start:end[k]]
		start = end[k]
		if len(bucket) == 0 {
			continue
		}
		s := &t.stripes[k]
		s.mu.Lock()
		s.locks.Add(1)
		for _, i := range bucket {
			if int(i) >= len(s.n) {
				s.grow(int(i), t.capacity)
			}
			s.insert(int(i), t.capacity, e)
		}
		s.mu.Unlock()
	}
}

// VisitedBy reports whether proc appears in L(v) — the variant
// Kronecker delta δ_{v,p} of Eq. 1.
func (t *Table) VisitedBy(v graph.VertexID, proc int32) bool {
	_, ok := t.LatestByProc(v, proc)
	return ok
}

// LatestByProc returns the most recent timestamp at which proc visited
// v, scanning L(v) newest-first (Record keeps the list time-ordered,
// so the first match is the maximum).
func (t *Table) LatestByProc(v graph.VertexID, proc int32) (int64, bool) {
	s, i := t.locate(v)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.locks.Add(1)
	list := s.list(i, t.capacity)
	for j := len(list) - 1; j >= 0; j-- {
		if list[j].Proc == proc {
			return list[j].Time, true
		}
	}
	return 0, false
}

// NoVisit is the sentinel timestamp LatestAll writes for processors
// without an entry in L(v). It is far older than any real timestamp,
// so max-comparisons against it need no special casing.
const NoVisit int64 = math.MinInt64

// LatestAll fills out[p] with the most recent timestamp at which
// processor p visited v, for every p in [0, len(out)), writing NoVisit
// where p has none. It acquires v's stripe lock once and scans L(v)
// once, serving all P units in a single pass — the batched counterpart
// of calling LatestByProc per processor, and the primitive behind the
// affinity scorer's per-round snapshot cache. Entries whose Proc falls
// outside [0, len(out)) are ignored. The scan takes the true maximum
// per processor, so it is correct even on a list with out-of-order
// residue. It reports whether any in-range processor was found.
func (t *Table) LatestAll(v graph.VertexID, out []int64) bool {
	for i := range out {
		out[i] = NoVisit
	}
	s, i := t.locate(v)
	s.mu.RLock()
	s.locks.Add(1)
	any := false
	for _, e := range s.list(i, t.capacity) {
		p := int(e.Proc)
		if p < 0 || p >= len(out) {
			continue
		}
		if out[p] == NoVisit || e.Time > out[p] {
			out[p] = e.Time
		}
		any = true
	}
	s.mu.RUnlock()
	return any
}

// LockAcquisitions returns the cumulative number of stripe-lock
// acquisitions taken by the hot-path operations (Record, RecordTrace,
// LatestByProc, LatestAll) since the table was created. It is a
// benchmark/diagnostic counter: the batched-scoring work asserts its
// growth rate.
func (t *Table) LockAcquisitions() int64 {
	var total int64
	for i := range t.stripes {
		total += t.stripes[i].locks.Load()
	}
	return total
}

// Visitors returns a copy of L(v), ordered oldest to newest.
func (t *Table) Visitors(v graph.VertexID) []Entry {
	s, i := t.locate(v)
	s.mu.RLock()
	defer s.mu.RUnlock()
	list := s.list(i, t.capacity)
	if len(list) == 0 {
		return nil
	}
	out := make([]Entry, len(list))
	copy(out, list)
	return out
}

// Len returns the total number of vertices with at least one
// signature entry.
func (t *Table) Len() int {
	total := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		total += s.used
		s.mu.RUnlock()
	}
	return total
}

// Reset drops all signature lists; the rows stay allocated.
func (t *Table) Reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		clear(s.n)
		s.used = 0
		s.mu.Unlock()
	}
}
