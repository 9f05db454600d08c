// Package lru is the one cache primitive behind solved responses, compiled
// continuous kernels, and planner classifications: a fixed-capacity,
// mutex-guarded LRU map.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, evicting the least recently used entry once
// it holds more than its capacity. Values are shared as-is:
// callers that hand them out must treat them as immutable. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; elements hold *entry
	entries map[K]*list.Element
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
	if c.order.Len() > c.cap { // one insert overflows by at most one
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*entry[K, V]).key)
	}
	return val
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge empties the cache.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[K]*list.Element)
}
