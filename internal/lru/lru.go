// Package lru is the one cache primitive behind solved responses, compiled
// continuous kernels, and planner classifications: a fixed-capacity,
// mutex-guarded LRU map with optional pin reference counts.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, evicting the least recently used unpinned
// entry once it holds more than its capacity. Values are shared as-is:
// callers that hand them out must treat them as immutable. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; elements hold *entry
	entries map[K]*list.Element
	pins    map[K]int
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding up to cap entries; cap < 1 disables it
// (every Get misses, every insert is dropped).
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{
		cap:     cap,
		order:   list.New(),
		entries: make(map[K]*list.Element),
		pins:    make(map[K]int),
	}
}

// Get returns the value cached for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
		val = el.Value.(*entry[K, V]).val
	}
	return val, ok
}

// Add inserts key → val, replacing the value of an existing entry.
func (c *Cache[K, V]) Add(key K, val V) {
	c.insert(key, val, true)
}

// LoadOrAdd inserts key → val unless key is already cached, and returns the
// value the cache now holds for key: the first insert wins. A disabled
// cache returns val.
func (c *Cache[K, V]) LoadOrAdd(key K, val V) V {
	return c.insert(key, val, false)
}

func (c *Cache[K, V]) insert(key K, val V, replace bool) V {
	if c.cap < 1 {
		return val
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		if replace {
			e.val = val
		}
		return e.val
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	c.evictLocked()
	return val
}

// evictLocked trims least-recently-used unpinned entries beyond cap. When
// every entry is pinned the cache is allowed to exceed cap: a pin is a
// liveness promise to its owner, not a budget.
func (c *Cache[K, V]) evictLocked() {
	for c.order.Len() > c.cap {
		el := c.order.Back()
		for el != nil && c.pins[el.Value.(*entry[K, V]).key] > 0 {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		c.order.Remove(el)
		delete(c.entries, el.Value.(*entry[K, V]).key)
	}
}

// Pin marks key as in use: pinned keys survive eviction. Pins are counted,
// so independent owners pin and unpin symmetrically. Pinning a key with no
// entry yet is allowed — the pin applies when the entry appears.
func (c *Cache[K, V]) Pin(key K) {
	c.mu.Lock()
	c.pins[key]++
	c.mu.Unlock()
}

// Unpin releases one Pin reference on key.
func (c *Cache[K, V]) Unpin(key K) {
	c.mu.Lock()
	if c.pins[key] > 1 {
		c.pins[key]--
	} else {
		delete(c.pins, key)
	}
	c.mu.Unlock()
}

// Pinned returns the number of distinct keys currently pinned.
func (c *Cache[K, V]) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pins)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge empties the cache; pins survive.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[K]*list.Element)
}
