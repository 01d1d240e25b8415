package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
)

// cacheKey canonicalizes a request into the string that keys the result
// cache AND the single-flight table: graph name, the graph's load
// generation (re-loading a name invalidates stale entries), the graph's
// mutation epoch (an ingested batch invalidates stale entries and prevents
// a new-epoch job from coalescing behind an old-epoch leader), algorithm,
// and the normalized parameters.
func cacheKey(graph string, gen, epoch uint64, algo string, p Params) string {
	buf, _ := json.Marshal(p) // Params marshals deterministically (fixed field order)
	return fmt.Sprintf("%s#%d@%d/%s?%s", graph, gen, epoch, algo, buf)
}

// resultCache is an LRU over completed job results, the service-level
// analogue of the engine's cachedPIDMap: the engine caches topology pages
// in spare device memory, the service caches whole answers in spare host
// memory. Hit/miss counters feed /metrics.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key string
	res *Result
}

// newResultCache builds a cache holding up to capacity results;
// capacity <= 0 disables caching (every lookup misses, puts are dropped).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached result for key, updating recency and counters.
func (c *resultCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).res, true
	}
	c.misses++
	return nil, false
}

// put stores res under key, evicting the least recently used entry when
// full. Results are shared across callers and must be treated as
// immutable.
func (c *resultCache) put(key string, res *Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
}

// stats returns (hits, misses, live entries).
func (c *resultCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
