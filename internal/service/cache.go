package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// LRU is a bounded least-recently-used map, safe for concurrent use. A
// zero or negative capacity disables it: Put stores nothing and Get
// always misses. It backs both of the service's tables, the result
// cache and the body table, in the service and in the cluster router.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	max   int                 // immutable after construction
	order *list.List          // guarded by mu; front = most recently used
	items map[K]*list.Element // guarded by mu
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty LRU holding at most max entries.
func newLRU[K comparable, V any](max int) *LRU[K, V] {
	return &LRU[K, V]{max: max, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores val under key, evicting the least recently used entry
// when the LRU is full.
func (c *LRU[K, V]) Put(key K, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for len(c.items) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// remove drops key if present (the simulation harness's forced
// eviction; production never calls it).
func (c *LRU[K, V]) remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len reports the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// ResultCache is a bounded LRU over finished response bodies, keyed by
// the request's content address (graph fingerprint + normalized
// options). Values are the exact bytes served for the original miss, so
// a hit is byte-identical to the response that populated it. Only
// complete (non-partial) results are stored — a deadline-truncated
// result is not a deterministic function of the key. The service
// caches its own results in one; the cluster router caches its
// backends' answers in another.
type ResultCache = LRU[string, []byte]

// NewResultCache returns an empty cache holding at most max entries; a
// zero or negative max disables caching.
func NewResultCache(max int) *ResultCache { return newLRU[string, []byte](max) }

// ContentAddr is a request's content address: the graph fingerprint,
// which routes it, and the full result key, which caches it.
type ContentAddr struct {
	Fingerprint, Key string
}

// BodyDigest is the SHA-256 of a request body's exact bytes.
type BodyDigest [sha256.Size]byte

// BodyTable maps request bodies that decoded and validated to the
// content address they decoded to, so a byte-identical repeat is
// addressed without decoding it again. The table keeps neither bodies
// nor anything to compare them with, so the key is a collision-resistant
// hash: two bodies sharing a digest would be served as one request.
type BodyTable struct {
	addrs *LRU[BodyDigest, ContentAddr]
}

// NewBodyTable returns an empty table holding at most max entries; a
// zero or negative max disables it.
func NewBodyTable(max int) *BodyTable {
	return &BodyTable{addrs: newLRU[BodyDigest, ContentAddr](max)}
}

// Lookup hashes body and returns its digest and, when the table knows
// it, the content address it decoded to. A disabled table hashes
// nothing and knows nothing.
func (t *BodyTable) Lookup(body []byte) (BodyDigest, ContentAddr, bool) {
	if t.addrs.max <= 0 {
		return BodyDigest{}, ContentAddr{}, false
	}
	d := BodyDigest(sha256.Sum256(body))
	addr, ok := t.addrs.Get(d)
	return d, addr, ok
}

// Record remembers addr for the body Lookup returned d for. Call it
// only once that body has decoded and validated to addr.
func (t *BodyTable) Record(d BodyDigest, addr ContentAddr) { t.addrs.Put(d, addr) }

// Len reports the current entry count.
func (t *BodyTable) Len() int { return t.addrs.Len() }
