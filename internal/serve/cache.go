package serve

import (
	"container/list"
	"sync"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// lruCache is a mutex-guarded LRU keyed by string, holding the per-digest
// quality and feature values and the generated corpus matrices. Values are
// opaque; the capacity counts entries, not bytes.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; stores *lruEntry
	entries  map[string]*list.Element
}

type lruEntry struct {
	key   string
	value any
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value and refreshes its recency.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// put inserts or refreshes the key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache) put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, value: value})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
}

// len returns the resident entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// matrixCache materializes generated corpus matrices at most once each and
// keeps a small LRU of them. Generation runs outside the cache lock; a
// per-entry sync.Once deduplicates concurrent generation of the same
// matrix without serializing different matrices.
type matrixCache struct {
	lru *lruCache
}

type matrixFuture struct {
	once sync.Once
	m    *sparse.CSR
	err  error
}

// matrixCacheEntries is how many generated corpus matrices the cache keeps.
const matrixCacheEntries = 8

func newMatrixCache() *matrixCache {
	return &matrixCache{lru: newLRUCache(matrixCacheEntries)}
}

// get returns the named corpus matrix at the given preset, generating it
// on first use.
func (mc *matrixCache) get(name string, preset gen.Preset) (*sparse.CSR, error) {
	key := preset.String() + "/" + name
	var fut *matrixFuture
	if v, ok := mc.lru.get(key); ok {
		fut = v.(*matrixFuture)
	} else {
		// Racing inserts are harmless: both futures generate the same
		// deterministic matrix, and the LRU keeps whichever landed last.
		fut = &matrixFuture{}
		mc.lru.put(key, fut)
	}
	fut.once.Do(func() {
		entry, err := gen.ByName(name)
		if err != nil {
			fut.err = err
			return
		}
		fut.m = entry.Generate(preset)
	})
	return fut.m, fut.err
}
