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
	"unsafe"

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
// and by tests. Readers may call Now from any goroutine; Set has a
// single writer (see Set).
type ManualClock struct {
	t atomic.Int64
}

// Now returns the current virtual time.
func (c *ManualClock) Now() int64 { return c.t.Load() }

// Set moves the clock to t; it never moves backwards. Set has a single
// writer: the one goroutine driving virtual time (a simulator's event
// loop, a replay) calls it, so a load and a store keep the clock
// monotone; two goroutines calling Set at once could each pass the load
// and the smaller time could land last.
func (c *ManualClock) Set(t int64) {
	if t > c.t.Load() {
		c.t.Store(t)
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
// by the low bits of the ID and each stripe keeps the list of each of
// its vertices as one fixed-stride record of a flat slab, indexed by the
// remaining bits. It is safe for concurrent use: traversal engines
// record visits while the scheduler reads affinities.
type Table struct {
	capacity int
	// stride is the 8 B words of one record: an 8 B header, capacity
	// 8 B timestamps and capacity 4 B procs, rounded up.
	stride  int
	stripes [numStripes]stripe
	// scratch pools the bulk writer's bucketing buffers (*bulk).
	scratch sync.Pool
}

// Vertex v lives in stripe v & stripeMask at local index v >> stripeBits.
const (
	stripeBits = 6
	numStripes = 1 << stripeBits
	stripeMask = numStripes - 1
)

// stripe holds L(v) for every v ≡ k (mod numStripes) in one slab of
// records, local index i's at words [i*stride, (i+1)*stride). A record
// is a header word (the list's length n in the low half, the ring's
// head in the high half), then capacity 8 B timestamps, then capacity
// 4 B procs: 8 + 12·capacity bytes rounded up to a word, so 128 B, two
// cache lines, at DefaultCapacity. Slot j holds one entry, times[j] and
// procs[j] (fields). The list, oldest first, is the n slots from head
// on, wrapping. head moves only once the ring is full, and n falls only
// when Reset clears the whole header, so a ring that is not full has
// head 0: the live slots are always the first n. The slab grows a
// quarter at a time, under the write lock, the first time a vertex
// beyond it is recorded; a vertex beyond it has an empty list.
type stripe struct {
	mu   sync.RWMutex
	slab []int64
	// used counts the local indices with a non-empty list.
	used int
	// locks counts mutex acquisitions (read or write) on this stripe's
	// hot-path operations. Per-stripe atomics avoid a single contended
	// cache line; Table.LockAcquisitions sums them. The counter feeds
	// the lock-budget tests: TestRecordTraceMatchesRecordLoop holds
	// RecordTrace to one lock per stripe (TestRecordAllocatesNothing
	// holds it and Record to no allocation), and affinity's
	// TestBuildAnchorsLockBudget the batched build to P× fewer locks.
	locks atomic.Int64
}

// NewTable creates a table keeping at most capacity entries per vertex
// (DefaultCapacity if capacity <= 0). It takes no vertex count: stripes
// size themselves to the largest vertex recorded.
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Table{capacity: capacity, stride: (8 + 12*capacity + 7) / 8}
	t.scratch.New = func() any { return new(bulk) }
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

// header unpacks a record's list length and ring head.
func header(rec []int64) (n, head int) {
	return int(uint32(rec[0])), int(rec[0] >> 32)
}

// fields splits a record into its timestamps and its procs, the procs
// viewed as the int32s they are: a slot's write stores 12 B and reads
// nothing.
func fields(rec []int64, capacity int) (times []int64, procs []int32) {
	return rec[1 : 1+capacity], unsafe.Slice((*int32)(unsafe.Pointer(&rec[1+capacity])), capacity)
}

// list returns local index i's ring head and the timestamps and procs
// of its live slots, the record's first n: empty beyond the grown
// range. The caller holds the stripe's lock.
func (s *stripe) list(i, capacity, stride int) (head int, times []int64, procs []int32) {
	lo := i * stride
	if lo >= len(s.slab) {
		return 0, nil, nil
	}
	rec := s.slab[lo : lo+stride : lo+stride]
	n, head := header(rec)
	times, procs = fields(rec, capacity)
	return head, times[:n], procs[:n]
}

// grow extends the stripe to cover local index i, by at least a quarter
// (and to no fewer than 16 records), so the slack is at most a quarter
// of the records in use. The caller holds the write lock.
func (s *stripe) grow(i, stride int) {
	rows := len(s.slab) / stride
	slab := make([]int64, max(rows+rows/4, i+1, 16)*stride)
	copy(slab, s.slab)
	s.slab = slab
}

// badVertex is the writers' panic for a negative vertex, which would
// otherwise ask grow for a row 2^25 indices out.
func badVertex(v graph.VertexID) {
	panic(fmt.Sprintf("signature: negative vertex %d", v))
}

// insert runs Record's list update on local index i's record in place.
// The caller holds the write lock and has grown the stripe to cover i.
// An entry no older than the newest (the in-order case) lands in the
// slot after the newest, which on a full ring is the oldest's, and
// nothing moves; an older one walks back from there past every newer
// entry.
//
//vet:hotpath
func (s *stripe) insert(i, capacity, stride int, e Entry) {
	rec := s.slab[i*stride : (i+1)*stride : (i+1)*stride]
	// Load the record's last word before its header, so that its last
	// cache line is already on the way when the header names the slot.
	atomic.LoadInt64(&rec[stride-1])
	times, procs := fields(rec, capacity)
	n, head := header(rec)
	slot := head + n
	if slot >= capacity {
		slot -= capacity
	}
	newest := slot - 1
	if newest < 0 {
		newest = capacity - 1
	}
	inOrder := n == 0 || times[newest] <= e.Time
	if n == capacity {
		if !inOrder && e.Time < times[head] {
			return
		}
		// The oldest entry's slot is e's; the next one is the oldest.
		if head++; head == capacity {
			head = 0
		}
	} else {
		if n == 0 {
			s.used++
		}
		n++
	}
	if !inOrder {
		// Shift every newer entry up one slot and drop e into the gap.
		for slot != head {
			prev := slot - 1
			if prev < 0 {
				prev = capacity - 1
			}
			if times[prev] <= e.Time {
				break
			}
			times[slot], procs[slot] = times[prev], procs[prev]
			slot = prev
		}
	}
	times[slot], procs[slot] = e.Time, e.Proc
	rec[0] = int64(n) | int64(head)<<32
}

// Record inserts the visit (now, proc) into L(v), keeping the list
// ordered by time and evicting the oldest entry when it is full. The
// global clock is steady, but live-runtime units race on reading it,
// so records for one vertex can arrive slightly out of order; a new
// record therefore insertion-sorts into the tail (lists hold at most
// capacity ≈ 10 entries, so this is O(capacity)); an in-order one, the
// simulator's every record, moves nothing. Keeping the list time-ordered
// is what makes the full list's eviction drop the oldest visit. A
// record older than every entry of a full list is already outside the
// "capacity most recent visits" window and is dropped. A negative v
// panics.
func (t *Table) Record(v graph.VertexID, proc int32, now int64) {
	if v < 0 {
		badVertex(v)
	}
	s, i := t.locate(v)
	s.mu.Lock()
	s.locks.Add(1)
	if i*t.stride >= len(s.slab) {
		s.grow(i, t.stride)
	}
	s.insert(i, t.capacity, t.stride, Entry{Time: now, Proc: proc})
	s.mu.Unlock()
}

// bucketMin is the shortest batch of visits the bulk writers bucket by
// stripe: two visits per stripe, below which one lock per stripe saves
// too few acquisitions to pay for the counting sort.
const bucketMin = 2 * numStripes

// RecordTrace signs one completed traversal into the table: it is
// Record(v, proc, now) for every v of touched, in order, with each
// stripe's lock taken once instead of once per vertex. Lists are per
// vertex and a stripe's vertices keep their order, so the table ends
// up exactly as the loop would leave it (a vertex listed twice is
// recorded twice). It is the bulk writer's case of one proc and one
// time for every visit.
func (t *Table) RecordTrace(touched []graph.VertexID, proc int32, now int64) {
	e := [1]Entry{{Time: now, Proc: proc}}
	t.record(touched, e[:])
}

// Log collects visits, each with its own proc and time, for one bulk
// write (Table.Flush). The zero Log is empty and ready to use; it keeps
// its capacity across flushes. Not safe for concurrent use.
type Log struct {
	vs []graph.VertexID
	es []Entry
}

// Add appends the visit (now, proc) to v.
func (l *Log) Add(v graph.VertexID, proc int32, now int64) {
	l.vs = append(l.vs, v)
	l.es = append(l.es, Entry{Time: now, Proc: proc})
}

// Len returns the number of visits waiting in the log.
func (l *Log) Len() int { return len(l.vs) }

// Reset drops the log's visits unsigned.
func (l *Log) Reset() { l.vs, l.es = l.vs[:0], l.es[:0] }

// Flush signs the log's visits in the order they were added and empties
// it: Record for each, with each stripe's lock taken once, so the table
// ends up exactly as the Record loop would leave it.
func (t *Table) Flush(l *Log) {
	t.record(l.vs, l.es)
	l.Reset()
}

// record is the one bulk writer: Record(vs[k], e.Proc, e.Time) for
// every k in order, where e is es[k], or es[0] for every k when es holds
// one entry. A batch shorter than bucketMin is the Record loop.
func (t *Table) record(vs []graph.VertexID, es []Entry) {
	step := 1
	if len(es) == 1 {
		step = 0
	}
	if len(vs) < bucketMin {
		for k, v := range vs {
			e := es[k*step]
			t.Record(v, e.Proc, e.Time)
		}
		return
	}
	b := t.scratch.Get().(*bulk)
	if cap(b.local) < len(vs) {
		b.local = make([]int32, len(vs))
	}
	ents := es
	if step == 1 {
		if cap(b.ents) < len(vs) {
			b.ents = make([]Entry, len(vs))
		}
		ents = b.ents[:len(vs)]
	}
	t.recordBucketed(vs, es, step, b.local[:len(vs)], ents)
	t.scratch.Put(b)
}

// bulk is the bulk writer's bucketing scratch.
type bulk struct {
	// local and ents hold one batch's visits grouped by stripe: each
	// visit's local index, and, when the visits carry their own entries,
	// its entry.
	local []int32
	ents  []Entry
}

// recordBucketed counting-sorts the visits by stripe (stably) — local
// indices into local and, at step 1, their entries es[k] into ents —
// and inserts them stripe by stripe, each stripe's bucket in two
// passes: one grows the stripe and loads the records, the other
// inserts. At step 0 every visit's entry is es[0], and ents is es.
//
//vet:hotpath
func (t *Table) recordBucketed(vs []graph.VertexID, es []Entry, step int, local []int32, ents []Entry) {
	// end[k] is first the size of stripe k's bucket, then its start,
	// and once the scatter has filled the bucket, its end.
	var end [numStripes]int32
	for _, v := range vs {
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
	for k, v := range vs {
		s := uint32(v) & stripeMask
		local[end[s]] = int32(uint32(v) >> stripeBits)
		if step == 1 {
			ents[end[s]] = es[k]
		}
		end[s]++
	}
	start := int32(0)
	for k := range t.stripes {
		lo, hi := start, end[k]
		start = hi
		if lo == hi {
			continue
		}
		s := &t.stripes[k]
		s.mu.Lock()
		s.locks.Add(1)
		// Load the first and the last word of every record the bucket
		// signs before inserting into any. The loads are independent, so
		// their cache misses overlap, where each insert would wait on its
		// own record's in turn. Go has no prefetch; an atomic load is a
		// load the compiler keeps though its value goes unused.
		for _, i := range local[lo:hi] {
			rec := int(i) * t.stride
			if rec >= len(s.slab) {
				s.grow(int(i), t.stride)
			}
			atomic.LoadInt64(&s.slab[rec])
			atomic.LoadInt64(&s.slab[rec+t.stride-1])
		}
		for b := lo; b < hi; b++ {
			s.insert(int(local[b]), t.capacity, t.stride, ents[int(b)*step])
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
// v: the maximum over proc's entries in L(v).
func (t *Table) LatestByProc(v graph.VertexID, proc int32) (int64, bool) {
	s, i := t.locate(v)
	s.mu.RLock()
	s.locks.Add(1)
	_, times, procs := s.list(i, t.capacity, t.stride)
	latest, ok := int64(0), false
	for j, p := range procs {
		if p == proc && (!ok || times[j] > latest) {
			latest, ok = times[j], true
		}
	}
	s.mu.RUnlock()
	return latest, ok
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
	_, times, procs := s.list(i, t.capacity, t.stride)
	for j, proc := range procs {
		p := int(proc)
		if p < 0 || p >= len(out) {
			continue
		}
		if out[p] == NoVisit || times[j] > out[p] {
			out[p] = times[j]
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
	j, times, procs := s.list(i, t.capacity, t.stride)
	if len(times) == 0 {
		return nil
	}
	// The list wraps only once the ring is full, at len(times).
	out := make([]Entry, len(times))
	for k := range out {
		out[k] = Entry{Time: times[j], Proc: procs[j]}
		if j++; j == len(times) {
			j = 0
		}
	}
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

// Reset drops all signature lists by clearing every record's header;
// the records stay allocated.
func (t *Table) Reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for lo := 0; lo < len(s.slab); lo += t.stride {
			s.slab[lo] = 0
		}
		s.used = 0
		s.mu.Unlock()
	}
}
