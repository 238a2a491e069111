package service

import (
	"container/list"
	"sync"
)

// ResultCache is a bounded LRU over finished response bodies, keyed by
// the request's content address (graph fingerprint + normalized
// options). Values are the exact bytes served for the original miss, so
// a hit is byte-identical to the response that populated it. Only
// complete (non-partial) results are stored — a deadline-truncated
// result is not a deterministic function of the key. The service
// caches its own results in one; the cluster router caches its
// backends' answers in another.
type ResultCache struct {
	mu    sync.Mutex
	max   int                      // immutable after construction
	order *list.List               // guarded by mu; front = most recently used
	items map[string]*list.Element // guarded by mu
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewResultCache returns an empty cache holding at most max entries; a
// zero or negative max disables caching.
func NewResultCache(max int) *ResultCache {
	return &ResultCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached body for key and marks it most recently used.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting the least recently used entry
// when the cache is full. A zero or negative capacity disables caching.
func (c *ResultCache) Put(key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	for len(c.items) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// remove drops key if present (the simulation harness's forced
// eviction; production never calls it).
func (c *ResultCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len reports the current entry count.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
