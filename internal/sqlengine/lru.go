package sqlengine

import (
	"container/list"
	"sync"
)

// lruCache is a string-keyed cache with least-recently-used eviction,
// bounded by the total cost of its entries. The kernel cache charges
// one unit per compiled program; the statement cache charges the
// statement's source bytes. Safe for concurrent use.
type lruCache[V any] struct {
	mu    sync.Mutex
	limit int
	used  int
	order *list.List // of *lruEntry[V], front = most recently used
	m     map[string]*list.Element
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int
}

func newLRU[V any](limit int) *lruCache[V] {
	return &lruCache[V]{limit: limit, order: list.New(), m: map[string]*list.Element{}}
}

// get returns the entry under key and marks it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.m[key])
}

// getBytes is get for a key held in a byte slice. The map index
// converts without allocating, so a hit copies nothing; callers make the
// string copy put needs only on a miss.
func (c *lruCache[V]) getBytes(key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.m[string(key)])
}

// touch marks el most recently used and returns its value; a nil el is
// a miss. Callers hold c.mu.
func (c *lruCache[V]) touch(el *list.Element) (V, bool) {
	if el == nil {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting least recently used entries until
// the total cost fits the limit. An entry that alone exceeds the limit
// is not stored. When key is already present (two callers missed
// concurrently) the incumbent stays, so every caller that hits shares
// one value.
func (c *lruCache[V]) put(key string, val V, cost int) {
	if cost > c.limit {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+cost > c.limit {
		old := c.order.Back()
		e := old.Value.(*lruEntry[V])
		c.order.Remove(old)
		delete(c.m, e.key)
		c.used -= e.cost
	}
	c.m[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
	c.used += cost
}

// len reports the number of entries.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
