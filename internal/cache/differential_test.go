package cache

import (
	"slices"
	"testing"

	"subtrav/internal/xrand"
)

// The slab-indexed Cache against refCache, the map + pointer-list LRU
// it replaced: one op stream drives both and everything observable is
// compared after every op. The stream is decoded from bytes so that the
// seeded property test below and FuzzCacheOps share one decoder.

// opBytes hands out a byte string one byte at a time, zeros once it is
// spent.
type opBytes struct {
	data []byte
	pos  int
}

func (b *opBytes) more() bool { return b.pos < len(b.data) }

func (b *opBytes) next() int {
	if !b.more() {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// opBudgets are the budgets a stream picks from: unlimited, smaller
// than any record, a record or two, and ones that hold a working set.
var opBudgets = []int64{Unlimited, 1, 7, 64, 300, 5000}

// key decodes one key: mostly one of 48 near ones, so records are hit,
// resized and evicted; sometimes one far beyond the grown index.
func (b *opBytes) key() Key {
	x := b.next()
	if x < 224 {
		return Key(x % 48)
	}
	return Key((x-224)*256+b.next()) * 37
}

// runCacheOps decodes data into Access, Hit, Contains and Flush calls,
// applies each to a slab cache and to the reference, and compares
// results, eviction order, counters and occupancy after every op. The
// reference has no Hit; it is Access on a resident record and nothing
// otherwise, which is the contract.
func runCacheOps(t testing.TB, data []byte) {
	t.Helper()
	b := &opBytes{data: data}
	budget := opBudgets[b.next()%len(opBudgets)]
	slab, ref := New(budget), newRef(budget)
	for step := 0; b.more(); step++ {
		op, k := b.next(), b.key()
		// Sizes 0–39, and now and then one larger than most budgets.
		size := int64(b.next() % 40)
		if op%16 == 15 {
			size *= 40
		}
		var got, want bool
		switch {
		case op < 128:
			got, want = slab.Access(k, size), ref.Access(k, size)
		case op < 208:
			got, want = slab.Hit(k, size), ref.Contains(k) && ref.Access(k, size)
		case op < 250:
			got, want = slab.Contains(k), ref.Contains(k)
		default:
			slab.Flush()
			ref.Flush()
		}
		if got != want {
			t.Fatalf("step %d: op %d on key %d size %d = %t, reference %t", step, op, k, size, got, want)
		}
		if g, w := slab.LRUKeys(), ref.LRUKeys(); !slices.Equal(g, w) {
			t.Fatalf("step %d: LRUKeys = %v, reference %v", step, g, w)
		}
		if slab.Stats() != ref.Stats() || slab.Used() != ref.Used() || slab.Len() != ref.Len() {
			t.Fatalf("step %d: stats %+v used %d len %d, reference %+v %d %d",
				step, slab.Stats(), slab.Used(), slab.Len(), ref.Stats(), ref.Used(), ref.Len())
		}
	}
	for k := Key(0); k < 64; k++ {
		if slab.Contains(k) != ref.Contains(k) {
			t.Fatalf("Contains(%d) = %t, reference %t", k, slab.Contains(k), ref.Contains(k))
		}
	}
}

func TestSlabCacheMatchesReference(t *testing.T) {
	rng := xrand.New(0xCAC4E)
	for round := 0; round < 120; round++ {
		data := make([]byte, 100+rng.Intn(2500))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		data[0] = byte(round) // every budget in turn
		runCacheOps(t, data)
	}
}

// Steady state allocates nothing: a hit never did, and a miss that
// evicts reuses the victim's slot off the free list. Not parallel:
// AllocsPerRun counts process-wide mallocs.
func TestAccessAllocatesNothing(t *testing.T) {
	c := New(64 * 10)
	for k := Key(0); k < 1000; k++ {
		c.Access(k, 10) // grows the index and the slab to their final size
	}
	var k Key
	hit := func() {
		k++
		if !c.Hit(999-k%64, 10) {
			t.Fatal("resident record missed")
		}
	}
	evictingAccess := func() {
		k++
		if c.Access(k%1000, 10) {
			t.Fatal("evicted record hit")
		}
	}
	if got := testing.AllocsPerRun(200, hit); got != 0 {
		t.Errorf("Hit: %.1f allocs/op, want 0", got)
	}
	evictions := c.Stats().Evictions
	if got := testing.AllocsPerRun(200, evictingAccess); got != 0 {
		t.Errorf("evicting Access: %.1f allocs/op, want 0", got)
	}
	if c.Stats().Evictions-evictions < 200 {
		t.Errorf("the guarded Access calls evicted %d records, want one each", c.Stats().Evictions-evictions)
	}
}
