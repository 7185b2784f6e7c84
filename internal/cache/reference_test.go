package cache

import "fmt"

type refEntry struct {
	key        Key
	size       int64
	prev, next *refEntry
}

// refCache is the map + pointer-list LRU Cache replaced (PR 20), kept
// unchanged as the oracle of the differential tests: after the same
// operations Cache must hold the same records in the same eviction
// order with the same counters.
type refCache struct {
	budget  int64 // <= 0 means unlimited
	used    int64
	entries map[Key]*refEntry
	// Sentinel-based doubly linked list; head.next is most recent,
	// head.prev is least recent.
	head  refEntry
	stats Stats
}

// newRef creates a cache with the given byte budget; a budget <= 0 means
// unlimited capacity.
func newRef(budgetBytes int64) *refCache {
	c := &refCache{budget: budgetBytes, entries: make(map[Key]*refEntry)}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

// Used returns the bytes currently resident.
func (c *refCache) Used() int64 { return c.used }

// Len returns the number of resident records.
func (c *refCache) Len() int { return len(c.entries) }

// Stats returns a copy of the activity counters.
func (c *refCache) Stats() Stats { return c.stats }

// Contains reports residency without touching recency or stats.
func (c *refCache) Contains(k Key) bool {
	_, ok := c.entries[k]
	return ok
}

func (c *refCache) unlink(e *refEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *refCache) pushFront(e *refEntry) {
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
func (c *refCache) Access(k Key, size int64) (hit bool) {
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
	e := &refEntry{key: k, size: size}
	c.entries[k] = e
	c.pushFront(e)
	c.used += size
	c.evictOverBudget(e)
	return false
}

// evictOverBudget removes LRU entries until the budget is met, never
// evicting keep (the record just inserted).
func (c *refCache) evictOverBudget(keep *refEntry) {
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
func (c *refCache) Flush() {
	c.entries = make(map[Key]*refEntry)
	c.head.prev = &c.head
	c.head.next = &c.head
	c.used = 0
}

// LRUKeys returns the resident keys from least to most recently used;
// intended for tests and debugging.
func (c *refCache) LRUKeys() []Key {
	keys := make([]Key, 0, len(c.entries))
	for e := c.head.prev; e != &c.head; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}
