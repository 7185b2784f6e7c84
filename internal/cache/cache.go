// Package cache implements the per-processing-unit memory buffer of
// the shared-disk architecture: a byte-budget LRU over graph records.
// When a traversal touches a vertex or edge whose record is resident,
// the access is a cheap memory hit; otherwise the record must be
// fetched from the shared disk and inserted, evicting
// least-recently-used records once the budget is exceeded — the
// "LRU-like replacement policy" of IBM System G described in
// Section VI of the paper.
package cache

import "fmt"

// Key identifies a cached record. Callers pack a record kind and ID;
// see VertexKey and EdgeKey.
type Key uint64

// VertexKey returns the cache key of vertex id.
func VertexKey(id int32) Key { return Key(uint64(uint32(id))) }

// EdgeKey returns the cache key of logical edge id.
func EdgeKey(id int32) Key { return Key(uint64(uint32(id)) | 1<<32) }

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

type entry struct {
	key        Key
	size       int64
	prev, next *entry
}

// Cache is a byte-budget LRU. It is not safe for concurrent use; each
// processing unit owns one.
type Cache struct {
	budget  int64 // <= 0 means unlimited
	used    int64
	entries map[Key]*entry
	// Sentinel-based doubly linked list; head.next is most recent,
	// head.prev is least recent.
	head  entry
	stats Stats
}

// New creates a cache with the given byte budget; a budget <= 0 means
// unlimited capacity.
func New(budgetBytes int64) *Cache {
	c := &Cache{budget: budgetBytes, entries: make(map[Key]*entry)}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

// Budget returns the configured byte budget (<= 0 when unlimited).
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the bytes currently resident.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of resident records.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports residency without touching recency or stats.
func (c *Cache) Contains(k Key) bool {
	_, ok := c.entries[k]
	return ok
}

func (c *Cache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache) pushFront(e *entry) {
	e.next = c.head.next
	e.prev = &c.head
	c.head.next.prev = e
	c.head.next = e
}

// Access records a read of record k with the given size. If resident,
// the record is refreshed (LRU touch) and Access reports a hit; when
// the caller's size differs from the resident one (a record that grew
// or shrank since it was loaded), the entry is resized in place,
// `used` is adjusted by the delta, and eviction re-runs so the budget
// holds again. If absent, it is loaded — charging BytesLoaded,
// evicting LRU records past the budget — and Access reports a miss. A
// record larger than the whole budget is still admitted alone (the
// unit cannot traverse without it) and evicts everything else.
func (c *Cache) Access(k Key, size int64) (hit bool) {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative record size %d", size))
	}
	if e, ok := c.entries[k]; ok {
		c.stats.Hits++
		c.unlink(e)
		c.pushFront(e)
		if size != e.size {
			c.used += size - e.size
			e.size = size
			c.evictOverBudget(e)
		}
		return true
	}
	c.stats.Misses++
	c.stats.BytesLoaded += size
	e := &entry{key: k, size: size}
	c.entries[k] = e
	c.pushFront(e)
	c.used += size
	c.evictOverBudget(e)
	return false
}

// evictOverBudget removes LRU entries until the budget is met, never
// evicting keep (the record just inserted).
func (c *Cache) evictOverBudget(keep *entry) {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		victim := c.head.prev
		if victim == &c.head || victim == keep {
			return
		}
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.used -= victim.size
		c.stats.Evictions++
	}
}

// Flush drops every resident record (used by memory-reconfiguration
// experiments). Stats are preserved.
func (c *Cache) Flush() {
	c.entries = make(map[Key]*entry)
	c.head.prev = &c.head
	c.head.next = &c.head
	c.used = 0
}

// LRUKeys returns the resident keys from least to most recently used;
// intended for tests and debugging.
func (c *Cache) LRUKeys() []Key {
	keys := make([]Key, 0, len(c.entries))
	for e := c.head.prev; e != &c.head; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}
