// Package qcache is a concurrency-safe query-result cache
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
// Capacity is byte-accounted: one LRU list evicts from its cold end
// while the entries held exceed Config.MaxBytes.
package qcache

import (
	"container/list"
	"sync"
	"time"

	"xdmodfed/internal/obs"
)

// Defaults for Config zero values.
const (
	DefaultMaxBytes = 64 << 20 // 64 MiB

	// entryOverhead approximates per-entry bookkeeping (map bucket,
	// list element, entry struct) on top of the caller's size estimate.
	entryOverhead = 96
)

// Config tunes one cache instance.
type Config struct {
	Name     string // metrics label for this cache; default "default"
	MaxBytes int64  // capacity of the whole cache; <=0 = DefaultMaxBytes
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

// Cache is an epoch-invalidated result cache for values of type V:
// one mutex guards one LRU list, its index and the in-flight fills.
// Cached values are shared between callers and must be treated as
// immutable.
type Cache[V any] struct {
	cfg    Config
	sizeOf func(V) int

	mu       sync.Mutex
	ll       *list.List // of *entry[V]; front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]
	stats    Stats // counters; Entries and Bytes are kept current

	// pre-resolved obs handles (one label lookup at construction, not
	// per request)
	mHits, mMisses, mCoalesced, mEvictions *obs.Counter
	mEntries, mBytes                       *obs.Gauge
	mFill                                  *obs.Histogram
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
	if sizeOf == nil {
		sizeOf = func(V) int { return 512 }
	}
	return &Cache[V]{
		cfg:      cfg,
		sizeOf:   sizeOf,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),

		mHits:      mHitsVec.With(cfg.Name),
		mMisses:    mMissesVec.With(cfg.Name),
		mCoalesced: mCoalescedVec.With(cfg.Name),
		mEvictions: mEvictionsVec.With(cfg.Name),
		mEntries:   mEntriesVec.With(cfg.Name),
		mBytes:     mBytesVec.With(cfg.Name),
		mFill:      mFillVec.With(cfg.Name),
	}
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
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		if e.epoch == epoch {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			c.mu.Unlock()
			c.mHits.Inc()
			return e.val, true, nil
		}
		// Stale epoch: drop now so it cannot be served again.
		c.removeLocked(el)
	}
	if f, ok := c.inflight[key]; ok && f.epoch == epoch {
		c.stats.Coalesced++
		c.mu.Unlock()
		c.mCoalesced.Inc()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight[V]{epoch: epoch, done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	c.mMisses.Inc()
	start := time.Now()
	v, err = fill()
	c.mFill.ObserveSince(start)

	f.val, f.err = v, err
	// sizeOf is the caller's code: run it before taking the lock.
	var size int64
	if err == nil {
		size = int64(c.sizeOf(v)) + int64(len(key)) + entryOverhead
	}
	c.mu.Lock()
	c.stats.Fills++
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if err == nil {
		c.storeLocked(key, v, epoch, size)
	}
	c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		return v, 0, false
	}
	e := el.Value.(*entry[V])
	c.stats.StaleHits++
	return e.val, e.epoch, true
}

// storeLocked inserts or replaces key's entry, charged size bytes, and
// evicts from the cold end while over capacity. Caller holds c.mu.
func (c *Cache[V]) storeLocked(key string, v V, epoch uint64, size int64) {
	if size > c.cfg.MaxBytes {
		return // larger than the whole cache: never cacheable
	}
	if el, ok := c.entries[key]; ok {
		// A slow fill from an older epoch must not clobber a fresher
		// entry another caller stored while we were computing.
		if el.Value.(*entry[V]).epoch > epoch {
			return
		}
		c.removeLocked(el)
	}
	e := &entry[V]{key: key, val: v, epoch: epoch, bytes: size}
	c.entries[key] = c.ll.PushFront(e)
	c.stats.Entries++
	c.stats.Bytes += size
	c.mEntries.Add(1)
	c.mBytes.Add(float64(size))
	for c.stats.Bytes > c.cfg.MaxBytes {
		c.removeLocked(c.ll.Back())
		c.stats.Evictions++
		c.mEvictions.Inc()
	}
}

// removeLocked unlinks one entry. Caller holds c.mu.
func (c *Cache[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.stats.Entries--
	c.stats.Bytes -= e.bytes
	c.mEntries.Add(-1)
	c.mBytes.Add(-float64(e.bytes))
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
