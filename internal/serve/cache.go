package serve

import (
	"container/list"
	"sync"

	"hotgauge/internal/obs"
)

// resultCache is an in-memory daemon's result home: canonical config
// hash → marshaled result bytes, bounded by a total byte budget with
// LRU eviction. Stored byte slices are treated as immutable by both
// sides — Put hands ownership to the cache, Get hands out the same
// slice to be written verbatim into responses, which is what makes a
// cache hit byte-identical to the original response. Hits and misses
// are counted by the callers that decide them, not here.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	evictions        *obs.Counter
	bytesG, entriesG *obs.Gauge
}

type cacheEntry struct {
	key  string
	data []byte
}

// newResultCache creates a cache holding at most budget bytes of result
// payloads (keys and bookkeeping are not counted). Counters are nil-safe
// via obs, so reg may be nil.
func newResultCache(budget int64, reg *obs.Registry) *resultCache {
	return &resultCache{
		budget:    budget,
		ll:        list.New(),
		entries:   map[string]*list.Element{},
		evictions: reg.Counter(MetricCacheEvictions),
		bytesG:    reg.Gauge(MetricCacheBytes),
		entriesG:  reg.Gauge(MetricCacheEntries),
	}
}

// Get returns the cached payload for key and refreshes its recency.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Put stores data under key, evicting least-recently-used entries until
// the budget holds. A payload larger than the whole budget is not
// cached. Re-putting an existing key replaces its payload.
func (c *resultCache) Put(key string, data []byte) {
	if int64(len(data)) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.data))
		c.evictions.Inc()
	}
	c.bytesG.Set(float64(c.bytes))
	c.entriesG.Set(float64(len(c.entries)))
}

// Len reports the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the payload bytes currently held.
func (c *resultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
