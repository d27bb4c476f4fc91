package chain

import (
	"container/list"
	"sync"

	"bcwan/internal/bccrypto"
	"bcwan/internal/script"
	"bcwan/internal/telemetry"
)

// sigCacheKey identifies one successfully verified (transaction, input,
// locking script) triple. The transaction ID commits to the unlocking
// script, so a hit proves the exact script pair executed cleanly before —
// a mempool-admitted input needs no re-verification at block connect.
type sigCacheKey struct {
	TxID  Hash
	Index uint32
	Lock  Hash
}

// lockHash condenses a locking script to a fixed-size cache key
// component.
func lockHash(lock script.Script) Hash {
	return Hash(bccrypto.DoubleSHA256(lock))
}

// SigCache is a fixed-capacity LRU cache of successful script
// verifications. It is safe for concurrent use by the validation worker
// pool, the mempool and the RPC server.
type SigCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recently used; values are sigCacheKey
	idx map[sigCacheKey]*list.Element

	// Telemetry counters; nil (a no-op) until SetMetrics wires them.
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
}

// DefaultSigCacheSize bounds the verification cache. At ~72 bytes per
// entry this is a few megabytes — enough to cover several blocks' worth
// of inputs at MaxBlockTxs=1000.
const DefaultSigCacheSize = 1 << 16

// NewSigCache creates a cache holding up to capacity (> 0) verified
// entries.
func NewSigCache(capacity int) *SigCache {
	return &SigCache{
		cap: capacity,
		lru: list.New(),
		idx: make(map[sigCacheKey]*list.Element),
	}
}

// SetMetrics wires hit/miss/eviction counters (typically registered by
// Chain.Instrument). Any may be nil; call before concurrent use.
func (c *SigCache) SetMetrics(hits, misses, evictions *telemetry.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions = hits, misses, evictions
}

// Contains reports whether the entry was verified before, refreshing its
// recency on a hit.
func (c *SigCache) Contains(key sigCacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if ok {
		c.lru.MoveToFront(el)
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return ok
}

// Add records a successful verification, evicting the least recently
// used entry when full.
func (c *SigCache) Add(key sigCacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.idx, oldest.Value.(sigCacheKey))
		c.evictions.Inc()
	}
	c.idx[key] = c.lru.PushFront(key)
}

// Len reports the number of cached verifications.
func (c *SigCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
