// Package qcache is a sharded, concurrency-safe query-result cache
// with generation (epoch) invalidation and request coalescing. It sits
// between the REST layer and the aggregation engine so that repeated
// chart queries — the read hot path of a federation hub serving "a
// combined, master view" to many users — are answered from memory
// instead of re-walking the aggregation tables.
//
// Correctness comes from the warehouse epoch, not from entry age:
// every write that could change a query result (replication batch,
// ingest commit, re-aggregation) bumps the owning warehouse.DB's epoch
// after the write is visible, and an entry is served only while the
// epoch it was computed under equals the current one. There is
// therefore no staleness window — the instant a write completes, all
// earlier results are unservable — and no need for a TTL.
//
// A cold popular key is computed once: concurrent GetOrCompute calls
// for the same (key, epoch) coalesce onto a single in-flight fill
// (singleflight), so a thundering herd performs ~1 underlying query.
//
// Capacity is byte-accounted: each shard runs an LRU list and evicts
// from the cold end when its share of Config.MaxBytes is exceeded.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"xdmodfed/internal/obs"
)

// Defaults for Config zero values.
const (
	DefaultMaxBytes = 64 << 20 // 64 MiB
	DefaultShards   = 16

	// entryOverhead approximates per-entry bookkeeping (map bucket,
	// list element, entry struct) on top of the caller's size estimate.
	entryOverhead = 96
)

// Config tunes one cache instance.
type Config struct {
	Name     string // metrics label for this cache; default "default"
	MaxBytes int64  // total capacity across shards; <=0 = DefaultMaxBytes
	Shards   int    // shard count; <=0 = DefaultShards
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      uint64 // lookups served from a valid entry
	Misses    uint64 // lookups that computed (cold or stale epoch)
	Coalesced uint64 // lookups that joined an in-flight fill
	Fills     uint64 // underlying computations performed
	Evictions uint64 // entries evicted for capacity
	StaleHits uint64 // epoch-stale entries served via PeekStale (degraded)
	Entries   int    // live entries
	Bytes     int64  // accounted bytes held
}

type entry[V any] struct {
	key   string
	val   V
	epoch uint64
	bytes int64
}

// flight is one in-progress fill; waiters block on done and read
// val/err afterwards.
type flight[V any] struct {
	epoch uint64
	done  chan struct{}
	val   V
	err   error
}

type shard[V any] struct {
	mu       sync.Mutex
	ll       *list.List // of *entry[V]; front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]
	bytes    int64
}

// Cache is a sharded epoch-invalidated result cache for values of type
// V. Cached values are shared between callers and must be treated as
// immutable.
type Cache[V any] struct {
	cfg      Config
	perShard int64
	shards   []shard[V]
	sizeOf   func(V) int

	hits, misses, coalesced, fills, evictions, staleHits atomic.Uint64
	entries                                              atomic.Int64
	bytes                                                atomic.Int64

	// pre-resolved obs handles (one label lookup at construction, not
	// per request)
	mHits, mMisses, mCoalesced, mEvictions, mStale *obs.Counter
	mEntries, mBytes                               *obs.Gauge
	mFill                                          *obs.Histogram
}

// New builds a cache. sizeOf estimates the retained bytes of one value
// for capacity accounting; nil charges a nominal 512 bytes per entry.
func New[V any](cfg Config, sizeOf func(V) int) *Cache[V] {
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if sizeOf == nil {
		sizeOf = func(V) int { return 512 }
	}
	c := &Cache[V]{
		cfg:      cfg,
		perShard: cfg.MaxBytes / int64(cfg.Shards),
		shards:   make([]shard[V], cfg.Shards),
		sizeOf:   sizeOf,

		mHits:      mHitsVec.With(cfg.Name),
		mMisses:    mMissesVec.With(cfg.Name),
		mCoalesced: mCoalescedVec.With(cfg.Name),
		mEvictions: mEvictionsVec.With(cfg.Name),
		mStale:     mStaleVec.With(cfg.Name),
		mEntries:   mEntriesVec.With(cfg.Name),
		mBytes:     mBytesVec.With(cfg.Name),
		mFill:      mFillVec.With(cfg.Name),
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].inflight = make(map[string]*flight[V])
	}
	return c
}

// shardFor picks the shard by FNV-1a of the key.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// GetOrCompute returns the cached value for key if one exists at the
// given epoch, otherwise computes it via fill and
// caches the result under that epoch. Concurrent calls for the same
// (key, epoch) share a single fill. hit reports whether the value came
// from the cache or an in-flight fill rather than a fresh computation
// by this caller. Errors are returned but never cached.
//
// Callers must read the epoch from the authoritative source BEFORE any
// data needed by fill could change — in practice, pass the warehouse's
// current Epoch() and let fill query it. If a write lands mid-fill the
// entry is stored under the pre-write epoch and is stale on arrival,
// which is safe (one extra recomputation, never a stale serve).
func (c *Cache[V]) GetOrCompute(key string, epoch uint64, fill func() (V, error)) (v V, hit bool, err error) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*entry[V])
		if e.epoch == epoch {
			sh.ll.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			c.mHits.Inc()
			return e.val, true, nil
		}
		// Stale epoch: drop now so it cannot be served again.
		c.removeLocked(sh, el)
	}
	if f, ok := sh.inflight[key]; ok && f.epoch == epoch {
		sh.mu.Unlock()
		<-f.done
		c.coalesced.Add(1)
		c.mCoalesced.Inc()
		return f.val, true, f.err
	}
	f := &flight[V]{epoch: epoch, done: make(chan struct{})}
	sh.inflight[key] = f
	sh.mu.Unlock()

	c.misses.Add(1)
	c.mMisses.Inc()
	start := time.Now()
	v, err = fill()
	c.fills.Add(1)
	c.mFill.ObserveSince(start)

	f.val, f.err = v, err
	sh.mu.Lock()
	if sh.inflight[key] == f {
		delete(sh.inflight, key)
	}
	if err == nil {
		c.storeLocked(sh, key, v, epoch)
	}
	sh.mu.Unlock()
	close(f.done)
	return v, false, err
}

// PeekStale returns key's cached value regardless of epoch, for
// graceful degradation: when the front door sheds a chart request it
// may instead serve the last computed result, clearly tagged as stale
// (HTTP Warning: 110). The entry is NOT promoted in the LRU (a shed
// request should not keep a stale entry warm). epoch reports the epoch
// the value was computed under so callers can say how stale it is.
//
// Note the interplay with GetOrCompute: an admitted request that finds
// a stale-epoch entry removes and recomputes it, so stale entries only
// survive while the front door is refusing the recomputation — exactly
// the overload window PeekStale exists for.
func (c *Cache[V]) PeekStale(key string) (v V, epoch uint64, ok bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, found := sh.entries[key]
	if !found {
		return v, 0, false
	}
	e := el.Value.(*entry[V])
	c.staleHits.Add(1)
	c.mStale.Inc()
	return e.val, e.epoch, true
}

// storeLocked inserts or replaces key's entry and evicts from the cold
// end while over the shard's capacity. Caller holds sh.mu.
func (c *Cache[V]) storeLocked(sh *shard[V], key string, v V, epoch uint64) {
	size := int64(c.sizeOf(v)) + int64(len(key)) + entryOverhead
	if size > c.perShard {
		return // larger than a whole shard: never cacheable
	}
	if el, ok := sh.entries[key]; ok {
		// A slow fill from an older epoch must not clobber a fresher
		// entry another caller stored while we were computing.
		if el.Value.(*entry[V]).epoch > epoch {
			return
		}
		c.removeLocked(sh, el)
	}
	e := &entry[V]{key: key, val: v, epoch: epoch, bytes: size}
	sh.entries[key] = sh.ll.PushFront(e)
	sh.bytes += size
	c.entries.Add(1)
	c.bytes.Add(size)
	c.mEntries.Add(1)
	c.mBytes.Add(float64(size))
	for sh.bytes > c.perShard {
		back := sh.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(sh, back)
		c.evictions.Add(1)
		c.mEvictions.Inc()
	}
}

// removeLocked unlinks one entry. Caller holds sh.mu.
func (c *Cache[V]) removeLocked(sh *shard[V], el *list.Element) {
	e := el.Value.(*entry[V])
	sh.ll.Remove(el)
	delete(sh.entries, e.key)
	sh.bytes -= e.bytes
	c.entries.Add(-1)
	c.bytes.Add(-e.bytes)
	c.mEntries.Add(-1)
	c.mBytes.Add(-float64(e.bytes))
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Fills:     c.fills.Load(),
		Evictions: c.evictions.Load(),
		StaleHits: c.staleHits.Load(),
		Entries:   int(c.entries.Load()),
		Bytes:     c.bytes.Load(),
	}
}
