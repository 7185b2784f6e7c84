package signature

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"subtrav/internal/graph"
)

func TestManualClock(t *testing.T) {
	var c ManualClock
	if c.Now() != 0 {
		t.Fatal("zero clock should read 0")
	}
	c.Set(100)
	if c.Now() != 100 {
		t.Errorf("Now = %d, want 100", c.Now())
	}
	c.Set(50) // never moves backwards
	if c.Now() != 100 {
		t.Errorf("clock moved backwards to %d", c.Now())
	}
	if got := c.Advance(25); got != 125 {
		t.Errorf("Advance returned %d, want 125", got)
	}
}

func TestWallClockMonotoneEnough(t *testing.T) {
	var c WallClock
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Errorf("wall clock regressed: %d then %d", a, b)
	}
}

func TestRecordAndQuery(t *testing.T) {
	tbl := NewTable(0)
	if tbl.Capacity() != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", tbl.Capacity(), DefaultCapacity)
	}
	v := graph.VertexID(7)
	if tbl.VisitedBy(v, 0) {
		t.Error("fresh vertex should have no visitors")
	}
	tbl.Record(v, 3, 100)
	tbl.Record(v, 5, 200)
	tbl.Record(v, 3, 300)
	if !tbl.VisitedBy(v, 3) || !tbl.VisitedBy(v, 5) || tbl.VisitedBy(v, 9) {
		t.Error("VisitedBy wrong")
	}
	if ts, ok := tbl.LatestByProc(v, 3); !ok || ts != 300 {
		t.Errorf("LatestByProc(3) = %d,%t, want 300,true", ts, ok)
	}
	if ts, ok := tbl.LatestByProc(v, 5); !ok || ts != 200 {
		t.Errorf("LatestByProc(5) = %d,%t, want 200,true", ts, ok)
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	tbl := NewTable(3)
	v := graph.VertexID(1)
	for i := int64(0); i < 5; i++ {
		tbl.Record(v, int32(i), i*10)
	}
	entries := tbl.Visitors(v)
	if len(entries) != 3 {
		t.Fatalf("len = %d, want 3", len(entries))
	}
	// Only the three newest survive: procs 2,3,4.
	if entries[0].Proc != 2 || entries[2].Proc != 4 {
		t.Errorf("entries = %v, want procs 2..4", entries)
	}
	if tbl.VisitedBy(v, 0) {
		t.Error("oldest entry should have been evicted")
	}
}

func TestVisitorsOrderedAndCopied(t *testing.T) {
	tbl := NewTable(5)
	v := graph.VertexID(2)
	tbl.Record(v, 1, 10)
	tbl.Record(v, 2, 20)
	got := tbl.Visitors(v)
	if len(got) != 2 || got[0].Time != 10 || got[1].Time != 20 {
		t.Fatalf("Visitors = %v", got)
	}
	got[0].Proc = 99 // must not corrupt the table
	if fresh := tbl.Visitors(v); fresh[0].Proc != 1 {
		t.Error("Visitors returned a live reference, not a copy")
	}
	if tbl.Visitors(graph.VertexID(42)) != nil {
		t.Error("Visitors of unseen vertex should be nil")
	}
}

func TestLenAndReset(t *testing.T) {
	tbl := NewTable(2)
	for v := graph.VertexID(0); v < 100; v++ {
		tbl.Record(v, 0, int64(v))
	}
	if tbl.Len() != 100 {
		t.Errorf("Len = %d, want 100", tbl.Len())
	}
	tbl.Reset()
	if tbl.Len() != 0 {
		t.Errorf("Len after reset = %d, want 0", tbl.Len())
	}
}

// A record is what a table's heap is made of: an 8 B header, then 12 B
// an entry (its time and its proc), rounded up to a word, for every
// capacity the L(v) sweep runs (1–20), and 128 B, two cache lines, at
// DefaultCapacity. Recording one vertex grows its stripe to 16 records.
func TestRecordStride(t *testing.T) {
	for c := 1; c <= 20; c++ {
		tbl := NewTable(c)
		tbl.Record(0, 0, 1)
		s := &tbl.stripes[0]
		word := int(unsafe.Sizeof(s.slab[0]))
		if got, want := len(s.slab)*word, 16*((8+12*c+7)/8)*8; got != want {
			t.Errorf("capacity %d: 16 records take %d B, want %d", c, got, want)
		}
	}
	tbl := NewTable(0)
	tbl.Record(0, 0, 1)
	if got := len(tbl.stripes[0].slab) * 8 / 16; got != 128 {
		t.Errorf("a record at DefaultCapacity takes %d B, want 128", got)
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	tbl := NewTable(10)
	var wg sync.WaitGroup
	for p := int32(0); p < 8; p++ {
		wg.Add(1)
		go func(proc int32) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := graph.VertexID(i % 257)
				tbl.Record(v, proc, int64(i))
				tbl.VisitedBy(v, proc)
				tbl.LatestByProc(v, (proc+1)%8)
			}
		}(p)
	}
	wg.Wait()
	// Every touched vertex has between 1 and capacity entries.
	for v := graph.VertexID(0); v < 257; v++ {
		n := len(tbl.Visitors(v))
		if n < 1 || n > 10 {
			t.Fatalf("vertex %d has %d entries", v, n)
		}
	}
}

// Regression: live-runtime units race on the wall clock, so records
// for one vertex can interleave out of order. LatestByProc and
// LatestAll must still report the true maximum timestamp per
// processor (the t_p of Eq. 2), not whichever entry happens to sit at
// the tail.
func TestRecordOutOfOrder(t *testing.T) {
	tbl := NewTable(5)
	v := graph.VertexID(9)
	tbl.Record(v, 1, 100)
	tbl.Record(v, 1, 300)
	tbl.Record(v, 1, 200) // arrives late: older than the tail
	if ts, ok := tbl.LatestByProc(v, 1); !ok || ts != 300 {
		t.Errorf("LatestByProc after out-of-order record = %d,%t, want 300,true", ts, ok)
	}
	got := tbl.Visitors(v)
	for i := 1; i < len(got); i++ {
		if got[i-1].Time > got[i].Time {
			t.Errorf("list not time-ordered after out-of-order record: %v", got)
		}
	}
	// Interleaved processors: proc 2's stale record must not mask
	// proc 1's fresh one, nor vice versa.
	tbl.Record(v, 2, 250)
	if ts, _ := tbl.LatestByProc(v, 1); ts != 300 {
		t.Errorf("proc 1 latest = %d, want 300", ts)
	}
	if ts, _ := tbl.LatestByProc(v, 2); ts != 250 {
		t.Errorf("proc 2 latest = %d, want 250", ts)
	}
}

// Regression: with the list full, eviction drops the entry that is
// oldest by time (index 0 of the ordered list), and a record older
// than everything in a full list is dropped rather than evicting a
// newer entry.
func TestRecordOutOfOrderEviction(t *testing.T) {
	tbl := NewTable(3)
	v := graph.VertexID(4)
	tbl.Record(v, 0, 100)
	tbl.Record(v, 1, 300)
	tbl.Record(v, 2, 200)
	// Full: {100, 200, 300}. A newer record evicts time 100.
	tbl.Record(v, 3, 400)
	if tbl.VisitedBy(v, 0) {
		t.Error("oldest entry (time 100) should have been evicted")
	}
	// {200, 300, 400}: a record older than all three is dropped.
	tbl.Record(v, 4, 150)
	if tbl.VisitedBy(v, 4) {
		t.Error("record older than a full list should be dropped")
	}
	if ts, _ := tbl.LatestByProc(v, 2); ts != 200 {
		t.Errorf("proc 2 latest = %d, want 200 (not evicted by stale record)", ts)
	}
}

func TestLatestAll(t *testing.T) {
	tbl := NewTable(10)
	v := graph.VertexID(11)
	out := make([]int64, 4)
	if tbl.LatestAll(v, out) {
		t.Error("LatestAll on unseen vertex should report false")
	}
	for _, ts := range out {
		if ts != NoVisit {
			t.Fatalf("unseen vertex out = %v, want all NoVisit", out)
		}
	}
	tbl.Record(v, 0, 100)
	tbl.Record(v, 2, 300)
	tbl.Record(v, 0, 250)
	tbl.Record(v, 7, 400) // outside [0, len(out)): ignored
	if !tbl.LatestAll(v, out) {
		t.Fatal("LatestAll should report true for in-range visitors")
	}
	want := []int64{250, NoVisit, 300, NoVisit}
	for p, ts := range out {
		if ts != want[p] {
			t.Errorf("out[%d] = %d, want %d", p, ts, want[p])
		}
	}
}

// Property: LatestAll agrees with per-proc LatestByProc on random
// record sequences, including out-of-order timestamps.
func TestLatestAllMatchesLatestByProcQuick(t *testing.T) {
	f := func(raw []uint16, capRaw uint8) bool {
		capacity := int(capRaw)%9 + 1
		tbl := NewTable(capacity)
		v := graph.VertexID(3)
		for _, r := range raw {
			proc := int32(r % 5)
			ts := int64(r / 5 % 64) // small range → plenty of out-of-order collisions
			tbl.Record(v, proc, ts)
		}
		out := make([]int64, 5)
		tbl.LatestAll(v, out)
		for p := int32(0); p < 5; p++ {
			ts, ok := tbl.LatestByProc(v, p)
			if ok != (out[p] != NoVisit) {
				return false
			}
			if ok && ts != out[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLockAcquisitionsCountsHotPath(t *testing.T) {
	tbl := NewTable(10)
	v := graph.VertexID(1)
	base := tbl.LockAcquisitions()
	tbl.Record(v, 0, 1)
	tbl.Record(v, 1, 2)
	out := make([]int64, 8)
	tbl.LatestAll(v, out)
	for p := int32(0); p < 8; p++ {
		tbl.LatestByProc(v, p)
	}
	if got := tbl.LockAcquisitions() - base; got != 2+1+8 {
		t.Errorf("lock acquisitions = %d, want 11 (2 records + 1 LatestAll + 8 LatestByProc)", got)
	}
}

// Property: after any sequence of records on one vertex, the list
// holds the most recent min(cap, total) entries in order.
func TestRingSemanticsQuick(t *testing.T) {
	f := func(procsRaw []uint8, capRaw uint8) bool {
		capacity := int(capRaw)%9 + 1
		tbl := NewTable(capacity)
		v := graph.VertexID(0)
		for i, p := range procsRaw {
			tbl.Record(v, int32(p), int64(i))
		}
		got := tbl.Visitors(v)
		want := len(procsRaw)
		if want > capacity {
			want = capacity
		}
		if len(got) != want {
			return false
		}
		offset := len(procsRaw) - want
		for i, e := range got {
			if e.Proc != int32(procsRaw[offset+i]) || e.Time != int64(offset+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
