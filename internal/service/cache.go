package service

import (
	"container/list"
	"strconv"
	"sync"
)

// cache is the per-endpoint response cache. Keys embed the snapshot
// generation they were rendered from, so a hit is *provably* the same
// bytes a recompute would produce — equal generations of one store
// imply identical folded state — and publishing a new snapshot
// invalidates everything implicitly by changing the key prefix.
// Entries from superseded generations are dropped eagerly on publish
// (prune) and the total entry count is LRU-bounded, so a burst of
// distinct queries cannot grow the cache without limit.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

// cacheEntry is one rendered response body.
type cacheEntry struct {
	key  string
	gen  uint64
	body []byte
}

// cacheEntries bounds the server's response cache.
const cacheEntries = 512

func newCache(max int) *cache {
	return &cache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// cacheKey renders the (generation, path, query) triple.
func cacheKey(gen uint64, path, rawQuery string) string {
	return strconv.FormatUint(gen, 10) + "\x00" + path + "\x00" + rawQuery
}

// get returns the cached body for key, marking it recently used.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores a rendered body, evicting the least recently used entry
// beyond the bound. Storing the same key twice keeps the first body;
// they are identical by construction (same generation, same query).
func (c *cache) put(key string, gen uint64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, gen: gen, body: body})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// prune drops every entry rendered from a generation other than gen —
// called when a new snapshot is published, since superseded
// generations can never be requested again.
func (c *cache) prune(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.gen != gen {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
		el = next
	}
}

// len returns the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
