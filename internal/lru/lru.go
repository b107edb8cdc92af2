// Package lru is a small mutex-guarded least-recently-used map: the
// size bound on the process-global build caches (the corpus parse
// cache and the compiled-program cache), which would otherwise grow by
// every new corpus a long-lived process sees, and on rcad's store of
// completed outcomes.
package lru

import (
	"container/list"
	"sync"
)

// Cache holds at most max entries; adding past the bound evicts the
// least recently used one. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under k and marks it most recently
// used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k unless k is already present, and returns the
// value the cache now holds for k: v, or the earlier value when a
// concurrent builder got there first (so callers share one copy).
// Either way k becomes the most recently used entry.
func (c *Cache[K, V]) Add(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	c.insert(k, v)
	return v
}

// Put stores v under k, replacing any earlier value, and makes k the
// most recently used entry.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.insert(k, v)
}

// insert adds a new most recently used entry, evicting the least
// recently used ones beyond the bound. c.mu must be held.
func (c *Cache[K, V]) insert(k K, v V) {
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
