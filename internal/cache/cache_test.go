package cache

import (
	"testing"
	"testing/quick"

	"subtrav/internal/xrand"
)

func TestMissThenHit(t *testing.T) {
	c := New(100)
	if hit := c.Access(VertexKey(1), 10); hit {
		t.Error("first access should miss")
	}
	if hit := c.Access(VertexKey(1), 10); !hit {
		t.Error("second access should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesLoaded != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(30)
	c.Access(VertexKey(1), 10)
	c.Access(VertexKey(2), 10)
	c.Access(VertexKey(3), 10)
	// Touch 1 so 2 becomes the LRU victim.
	c.Access(VertexKey(1), 10)
	c.Access(VertexKey(4), 10) // must evict 2
	if c.Contains(VertexKey(2)) {
		t.Error("vertex 2 should have been evicted (LRU)")
	}
	if !c.Contains(VertexKey(1)) || !c.Contains(VertexKey(3)) || !c.Contains(VertexKey(4)) {
		t.Error("wrong eviction victim")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestBudgetRespected(t *testing.T) {
	c := New(100)
	for i := int32(0); i < 1000; i++ {
		c.Access(VertexKey(i), 7)
	}
	if c.Used() > 100 {
		t.Errorf("used %d exceeds budget 100", c.Used())
	}
	if c.Len() != int(c.Used()/7) {
		t.Errorf("len %d inconsistent with used %d", c.Len(), c.Used())
	}
}

func TestUnlimitedNeverEvicts(t *testing.T) {
	c := New(Unlimited)
	for i := int32(0); i < 10_000; i++ {
		c.Access(VertexKey(i), 1000)
	}
	if c.Stats().Evictions != 0 {
		t.Errorf("unlimited cache evicted %d", c.Stats().Evictions)
	}
	if c.Len() != 10_000 {
		t.Errorf("len = %d, want 10000", c.Len())
	}
}

func TestOversizedRecordAdmitted(t *testing.T) {
	c := New(50)
	c.Access(VertexKey(1), 10)
	c.Access(VertexKey(2), 500) // larger than entire budget
	if !c.Contains(VertexKey(2)) {
		t.Error("oversized record must still be admitted")
	}
	if c.Contains(VertexKey(1)) {
		t.Error("smaller records should be evicted to make room")
	}
	// Re-inserting a small record must evict the oversized one.
	c.Access(VertexKey(3), 10)
	if c.Contains(VertexKey(2)) {
		t.Error("oversized record should be evicted when next record arrives")
	}
}

func TestFlush(t *testing.T) {
	c := New(100)
	c.Access(VertexKey(1), 10)
	c.Access(VertexKey(2), 10)
	c.Flush()
	if c.Len() != 0 || c.Used() != 0 {
		t.Errorf("after flush: len=%d used=%d", c.Len(), c.Used())
	}
	if c.Contains(VertexKey(1)) {
		t.Error("record survived flush")
	}
	if c.Stats().Misses != 2 {
		t.Error("flush should preserve stats")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := New(Unlimited)
	c.Access(VertexKey(1), 1)
	c.Access(VertexKey(2), 1)
	c.Access(VertexKey(3), 1)
	c.Access(VertexKey(1), 1) // 1 becomes most recent
	keys := c.LRUKeys()
	want := []Key{VertexKey(2), VertexKey(3), VertexKey(1)}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("idle hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %g, want 0.75", s.HitRate())
	}
}

// Regression: the hit path used to ignore `size`, so a record
// re-accessed with a drifted size left `used` permanently wrong and
// the budget silently violated.
func TestHitResizesDriftedRecord(t *testing.T) {
	c := New(100)
	c.Access(VertexKey(1), 40)
	c.Access(VertexKey(2), 40)
	if got := c.Used(); got != 80 {
		t.Fatalf("used = %d, want 80", got)
	}

	// Shrink on hit: used must drop with it.
	if hit := c.Access(VertexKey(1), 10); !hit {
		t.Fatal("resized access should still hit")
	}
	if got := c.Used(); got != 50 {
		t.Errorf("used after shrink = %d, want 50", got)
	}
	if c.Stats().Evictions != 0 {
		t.Errorf("shrink must not evict, got %d evictions", c.Stats().Evictions)
	}

	// Grow on hit past the budget (10 + 95 = 105 > 100): eviction must
	// re-run and the grown record (just touched, so most recent) must
	// survive.
	if hit := c.Access(VertexKey(2), 95); !hit {
		t.Fatal("resized access should still hit")
	}
	if c.Contains(VertexKey(1)) {
		t.Error("LRU record should be evicted when a hit record grows past the budget")
	}
	if !c.Contains(VertexKey(2)) {
		t.Error("grown record must survive its own resize eviction")
	}
	if got := c.Used(); got != 95 {
		t.Errorf("used after grow = %d, want 95", got)
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}

	// Same-size hit keeps the fast path: nothing changes.
	c.Access(VertexKey(2), 95)
	if got := c.Used(); got != 95 {
		t.Errorf("used after same-size hit = %d, want 95", got)
	}
	// BytesLoaded only counts genuine loads, never hit-path resizes.
	if got := c.Stats().BytesLoaded; got != 80 {
		t.Errorf("bytes loaded = %d, want 80", got)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative size")
		}
	}()
	New(10).Access(VertexKey(1), -1)
}

// A key outside the dense range (a negative vertex ID, say) reads as
// absent and panics when loaded, before it can size the index.
func TestKeyBeyondDenseRangePanics(t *testing.T) {
	c := New(10)
	for _, k := range []Key{VertexKey(-1), 1 << 31, 1 << 40} {
		if c.Contains(k) || c.Hit(k, 1) {
			t.Errorf("key %d reads as resident", k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%d) did not panic", k)
				}
			}()
			c.Access(k, 1)
		}()
	}
	if st := c.Stats(); st != (Stats{}) || c.Len() != 0 {
		t.Errorf("refused keys were counted: %+v, len %d", st, c.Len())
	}
}

// Property: used bytes always equal the sum of resident record sizes
// and never exceed the budget (when all records fit individually) —
// even when a record's size drifts between accesses, exercising the
// hit-path resize.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed uint64, ops uint16) bool {
		rng := xrand.New(seed)
		const budget = 200
		c := New(budget)
		sizes := map[Key]int64{}
		for i := 0; i < int(ops)%500+1; i++ {
			k := VertexKey(int32(rng.Intn(50)))
			size := int64(rng.Intn(40) + 1) // always < budget
			sizes[k] = size                 // hit path adopts the new size
			c.Access(k, size)
			if c.Used() > budget {
				return false
			}
		}
		var sum int64
		for _, k := range c.LRUKeys() {
			sum += sizes[k]
		}
		return sum == c.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses equals the number of accesses, and a hit never
// increases BytesLoaded.
func TestAccountingQuick(t *testing.T) {
	f := func(seed uint64, ops uint16) bool {
		rng := xrand.New(seed)
		c := New(Unlimited)
		n := int(ops)%300 + 1
		var expectedLoads int64
		loaded := map[Key]bool{}
		for i := 0; i < n; i++ {
			k := VertexKey(int32(rng.Intn(30)))
			if !loaded[k] {
				expectedLoads += 5
				loaded[k] = true
			}
			c.Access(k, 5)
		}
		st := c.Stats()
		return st.Hits+st.Misses == int64(n) && st.BytesLoaded == expectedLoads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
