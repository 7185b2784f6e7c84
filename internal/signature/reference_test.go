package signature

import (
	"sync"
	"sync/atomic"

	"subtrav/internal/graph"
)

// refTable is the map-of-slices table Table replaced (PR 20), kept
// unchanged as the oracle of the differential tests: Table must answer
// every query exactly as this does after the same records.
type refTable struct {
	capacity int
	shards   []refShard
	mask     uint32
}

type refShard struct {
	mu    sync.RWMutex
	lists map[graph.VertexID][]Entry
	// locks counts mutex acquisitions (read or write) on this shard's
	// hot-path operations. Per-shard atomics avoid a single contended
	// cache line; Table.LockAcquisitions sums them. The counter mirrors
	// the flat table's, whose budgets TestRecordTraceMatchesRecordLoop
	// (one lock per stripe) and TestRecordAllocatesNothing (no
	// allocation) pin.
	locks atomic.Int64
}

// newRefTable creates a table keeping at most capacity entries per vertex
// (DefaultCapacity if capacity <= 0).
func newRefTable(capacity int) *refTable {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	const numShards = 64 // power of two
	t := &refTable{capacity: capacity, shards: make([]refShard, numShards), mask: numShards - 1}
	for i := range t.shards {
		t.shards[i].lists = make(map[graph.VertexID][]Entry)
	}
	return t
}

func (t *refTable) shardFor(v graph.VertexID) *refShard {
	return &t.shards[uint32(v)&t.mask]
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
// the "capacity most recent visits" window and is dropped.
func (t *refTable) Record(v graph.VertexID, proc int32, now int64) {
	s := t.shardFor(v)
	s.mu.Lock()
	s.locks.Add(1)
	list := s.lists[v]
	if len(list) == t.capacity {
		if now < list[0].Time {
			s.mu.Unlock()
			return
		}
		copy(list, list[1:])
		list[len(list)-1] = Entry{Time: now, Proc: proc}
	} else {
		list = append(list, Entry{Time: now, Proc: proc})
	}
	for i := len(list) - 1; i > 0 && list[i-1].Time > list[i].Time; i-- {
		list[i-1], list[i] = list[i], list[i-1]
	}
	s.lists[v] = list
	s.mu.Unlock()
}

// LatestByProc returns the most recent timestamp at which proc visited
// v, scanning L(v) newest-first (Record keeps the list time-ordered,
// so the first match is the maximum).
func (t *refTable) LatestByProc(v graph.VertexID, proc int32) (int64, bool) {
	s := t.shardFor(v)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.locks.Add(1)
	list := s.lists[v]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].Proc == proc {
			return list[i].Time, true
		}
	}
	return 0, false
}

// LatestAll fills out[p] with the most recent timestamp at which
// processor p visited v, for every p in [0, len(out)), writing NoVisit
// where p has none. It acquires v's shard lock once and scans L(v)
// once, serving all P units in a single pass — the batched counterpart
// of calling LatestByProc per processor, and the primitive behind the
// affinity scorer's per-round snapshot cache. Entries whose Proc falls
// outside [0, len(out)) are ignored. The scan takes the true maximum
// per processor, so it is correct even on a list with out-of-order
// residue. It reports whether any in-range processor was found.
func (t *refTable) LatestAll(v graph.VertexID, out []int64) bool {
	for i := range out {
		out[i] = NoVisit
	}
	s := t.shardFor(v)
	s.mu.RLock()
	s.locks.Add(1)
	any := false
	for _, e := range s.lists[v] {
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

// Visitors returns a copy of L(v), ordered oldest to newest.
func (t *refTable) Visitors(v graph.VertexID) []Entry {
	s := t.shardFor(v)
	s.mu.RLock()
	defer s.mu.RUnlock()
	list := s.lists[v]
	if len(list) == 0 {
		return nil
	}
	out := make([]Entry, len(list))
	copy(out, list)
	return out
}

// Len returns the total number of vertices with at least one
// signature entry.
func (t *refTable) Len() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		total += len(s.lists)
		s.mu.RUnlock()
	}
	return total
}

// Reset drops all signature lists.
func (t *refTable) Reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.lists = make(map[graph.VertexID][]Entry)
		s.mu.Unlock()
	}
}
