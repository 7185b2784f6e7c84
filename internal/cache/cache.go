// Package cache implements the per-processing-unit memory buffer of
// the shared-disk architecture: a byte-budget LRU over graph records.
// When a traversal touches a vertex or edge whose record is resident,
// the access is a cheap memory hit; otherwise the record must be
// fetched from the shared disk and inserted, evicting
// least-recently-used records once the budget is exceeded — the
// "LRU-like replacement policy" of IBM System G described in
// Section VI of the paper.
//
// Keys are dense (a vertex record's key is its CSR index), so the
// cache hashes nothing: an index array maps a key to a slot of one slab
// of entries, and the recency list is linked through slot numbers.
package cache

import (
	"fmt"
	"math"
)

// Key identifies a cached record; see VertexKey. Only keys up to maxKey
// can be cached.
type Key uint64

// maxKey is the largest cacheable key: an entry stores its key as an
// int32, and a larger key would ask for an index of more than 8 GiB.
const maxKey Key = math.MaxInt32

// VertexKey returns the cache key of vertex id.
func VertexKey(id int32) Key { return Key(uint64(uint32(id))) }

// Unlimited configures a cache with no byte budget (the paper's
// "unlimited" memory point in Figure 9).
const Unlimited int64 = 0

// Stats counts cache activity since creation.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// BytesLoaded is the total size of records inserted (i.e. fetched
	// from the shared disk).
	BytesLoaded int64
}

// HitRate returns hits/(hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d loaded=%dB hit-rate=%.3f",
		s.Hits, s.Misses, s.Evictions, s.BytesLoaded, s.HitRate())
}

// entry is one slab slot: a resident record on the recency list, or a
// free slot on the free list (linked through next alone). Every field
// is 4 bytes, so a slot is 16 (TestEntryIs16Bytes): a record's size
// fits in an int32 like traverse.Access.Bytes, and Hit rejects one
// that does not.
type entry struct {
	size       int32
	key        int32
	prev, next int32
}

// Cache is a byte-budget LRU. It is not safe for concurrent use; each
// processing unit owns one.
type Cache struct {
	budget int64 // <= 0 means unlimited
	used   int64
	// index maps a key to its slot in entries, 0 when the record is
	// absent; keys beyond it are absent. It grows on a miss.
	index []int32
	// entries is the slab. Slot 0 is the sentinel of the doubly linked
	// recency list: its next is the most recent record, its prev the
	// least recent.
	entries []entry
	// free heads the list of evicted slots, 0 when there is none.
	free     int32
	resident int
	stats    Stats
}

// New creates a cache with the given byte budget; a budget <= 0 means
// unlimited capacity. It takes no key range: the index sizes itself to
// the largest key inserted.
func New(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes, entries: make([]entry, 1)}
}

// Used returns the bytes currently resident.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of resident records.
func (c *Cache) Len() int { return c.resident }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports residency without touching recency or stats.
func (c *Cache) Contains(k Key) bool {
	return k < Key(len(c.index)) && c.index[k] != 0
}

func (c *Cache) unlink(slot int32) {
	e := &c.entries[slot]
	c.entries[e.prev].next = e.next
	c.entries[e.next].prev = e.prev
}

func (c *Cache) pushFront(slot int32) {
	first := c.entries[0].next
	c.entries[slot].prev, c.entries[slot].next = 0, first
	c.entries[first].prev = slot
	c.entries[0].next = slot
}

func badSize(size int64) {
	panic(fmt.Sprintf("cache: record size %d outside [0, %d]", size, math.MaxInt32))
}

// Hit is Access for a record that may only be read if it is already
// resident: a resident record is refreshed and counted exactly as
// Access's hit, an absent one is left absent and uncounted, and Hit
// reports which it was. It is the single probe of a charge loop that
// pays for a fetch before it loads. Sizes outside [0, 1<<31 - 1]
// panic, as in Access.
//
//vet:hotpath
func (c *Cache) Hit(k Key, size int64) bool {
	if uint64(size) > math.MaxInt32 {
		badSize(size)
	}
	if k >= Key(len(c.index)) {
		return false
	}
	slot := c.index[k]
	if slot == 0 {
		return false
	}
	c.stats.Hits++
	c.unlink(slot)
	c.pushFront(slot)
	if e := &c.entries[slot]; int32(size) != e.size {
		c.used += size - int64(e.size)
		e.size = int32(size)
		c.evictOverBudget(slot)
	}
	return true
}

// Access records a read of record k with the given size. If resident,
// the record is refreshed (LRU touch) and Access reports a hit; when
// the caller's size differs from the resident one (a record that grew
// or shrank since it was loaded), the entry is resized in place,
// `used` is adjusted by the delta, and eviction re-runs so the budget
// holds again. If absent, it is loaded — charging BytesLoaded,
// evicting LRU records past the budget — and Access reports a miss. A
// record larger than the whole budget is still admitted alone (the
// unit cannot traverse without it) and evicts everything else. A size
// outside [0, 1<<31 - 1] panics, and so does loading a key beyond
// 1<<31 - 1.
//
//vet:hotpath
func (c *Cache) Access(k Key, size int64) (hit bool) {
	if c.Hit(k, size) {
		return true
	}
	if k >= Key(len(c.index)) {
		c.growIndex(k)
	}
	c.stats.Misses++
	c.stats.BytesLoaded += size
	slot := c.free
	if slot != 0 {
		c.free = c.entries[slot].next
	} else {
		c.entries = append(c.entries, entry{})
		slot = int32(len(c.entries) - 1)
	}
	c.entries[slot].key, c.entries[slot].size = int32(k), int32(size)
	c.index[k] = slot
	c.resident++
	c.pushFront(slot)
	c.used += size
	c.evictOverBudget(slot)
	return false
}

// growIndex extends the index to cover k, at least doubling it.
func (c *Cache) growIndex(k Key) {
	if k > maxKey {
		panic(fmt.Sprintf("cache: key %d beyond %d", k, maxKey))
	}
	index := make([]int32, max(2*len(c.index), int(k)+1))
	copy(index, c.index)
	c.index = index
}

// evictOverBudget removes LRU entries until the budget is met, never
// evicting keep (the record just inserted).
func (c *Cache) evictOverBudget(keep int32) {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		victim := c.entries[0].prev
		if victim == 0 || victim == keep {
			return
		}
		c.unlink(victim)
		e := &c.entries[victim]
		c.index[e.key] = 0
		c.used -= int64(e.size)
		e.next, c.free = c.free, victim
		c.resident--
		c.stats.Evictions++
	}
}

// Flush drops every resident record (used by memory-reconfiguration
// experiments). Stats are preserved.
func (c *Cache) Flush() {
	clear(c.index)
	c.entries = c.entries[:1]
	c.entries[0] = entry{}
	c.free = 0
	c.resident = 0
	c.used = 0
}

// LRUKeys returns the resident keys from least to most recently used;
// intended for tests and debugging.
func (c *Cache) LRUKeys() []Key {
	keys := make([]Key, 0, c.resident)
	for slot := c.entries[0].prev; slot != 0; slot = c.entries[slot].prev {
		keys = append(keys, Key(c.entries[slot].key))
	}
	return keys
}
