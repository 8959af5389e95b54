package warehouse

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Schema-granular sharding. Every schema is an independent shard
// domain: it owns its own writer lock, its own epoch counter and its
// own dirty-table list, and (via the segment store's per-schema
// namespace) its own sealed-segment files. Writers that confine
// themselves to one schema — replication applies, incremental
// aggregation folds, per-shard aggregate installs — take the DB read
// lock plus their shard's lock, so writes against different schemas
// commit fully in parallel. The global write lock (Do and the DDL
// paths) still excludes everything, so legacy multi-schema
// transactions keep their old semantics unchanged.
//
// Lock ordering: db.mu before any shard lock; shard locks ascending by
// creation order (shardState.ord). DoSchemas sorts before locking and
// View locks every shard in order, so the hierarchy is total.
//
// The binlog is deliberately NOT sharded: replication correctness
// depends on one total order of events per instance (LSNs resume
// replication mid-stream), and Binlog.Append is internally
// synchronized, so concurrent shard commits interleave safely. The
// write-ahead log follows the binlog and inherits that order.

// shardState is one schema's shard domain.
type shardState struct {
	name string
	ord  int // global lock-ordering rank (creation order)

	// mu is the shard writer lock. Writers hold db.mu.RLock + mu;
	// global transactions hold db.mu.Lock, which excludes every shard
	// writer without touching the shard locks at all.
	mu sync.RWMutex

	// epoch counts this schema's committed generations. Any commit that
	// published at least one of the schema's tables bumps it, so the
	// query cache can scope invalidation to the schemas a chart reads.
	epoch atomic.Uint64

	// dirty lists the schema's tables mutated by the in-flight write
	// transaction (guarded by the lock the transaction holds); commit
	// publishes each, clears the list and bumps epoch.
	dirty []*Table
}

// shardSet is the atomically published view of all shard domains,
// rebuilt (rarely) on DDL like the table catalog. Immutable after
// publication, so Epoch/EpochOf read it lock-free.
type shardSet struct {
	list   []*shardState // ascending ord
	byName map[string]*shardState
}

var emptyShardSet = &shardSet{byName: map[string]*shardState{}}

// ensureShardLocked returns the schema's shard domain, creating and
// publishing it if needed. Caller must hold db.mu.
func (db *DB) ensureShardLocked(name string) *shardState {
	old := db.shards.Load()
	if sh, ok := old.byName[name]; ok {
		return sh
	}
	sh := &shardState{name: name, ord: db.shardOrd}
	db.shardOrd++
	next := &shardSet{
		list:   append(append([]*shardState(nil), old.list...), sh),
		byName: make(map[string]*shardState, len(old.byName)+1),
	}
	for n, s := range old.byName {
		next.byName[n] = s
	}
	next.byName[name] = sh
	db.shards.Store(next)
	return sh
}

// dropShardLocked removes a schema's shard domain, folding its epoch
// (plus one for the drop itself) into the root epoch so the DB-wide
// epoch sum never moves backwards. Caller must hold db.mu.
func (db *DB) dropShardLocked(name string) {
	old := db.shards.Load()
	sh, ok := old.byName[name]
	if !ok {
		return
	}
	db.epoch.Add(sh.epoch.Load() + 1)
	next := &shardSet{
		list:   make([]*shardState, 0, len(old.list)-1),
		byName: make(map[string]*shardState, len(old.byName)-1),
	}
	for _, s := range old.list {
		if s != sh {
			next.list = append(next.list, s)
		}
	}
	for n, s := range old.byName {
		if n != name {
			next.byName[n] = s
		}
	}
	db.shards.Store(next)
}

// commitShardLocked publishes a fresh snapshot for every table the
// finished transaction touched in one shard and, when anything was
// published, bumps the shard epoch. Must run while holding the shard's
// writer lock (or db.mu exclusively).
func (db *DB) commitShardLocked(sh *shardState) {
	if len(sh.dirty) == 0 {
		return
	}
	for _, t := range sh.dirty {
		t.publish()
		t.txnDirty = false
	}
	sh.dirty = sh.dirty[:0]
	sh.epoch.Add(1)
}

// EpochOf returns the warehouse generation as observed through the
// named schemas: the root epoch (global invalidations, schema drops)
// plus the named schemas' shard epochs. A cached result that only read
// these schemas is valid iff the value is unchanged — commits against
// other schemas leave it alone, which is what scopes query-cache
// invalidation to the realm a chart actually reads.
func (db *DB) EpochOf(names ...string) uint64 {
	e := db.epoch.Load()
	ss := db.shards.Load()
	for _, n := range names {
		if sh, ok := ss.byName[n]; ok {
			e += sh.epoch.Load()
		}
	}
	return e
}

// resolveShards maps schema names to their shard domains, deduplicated
// and sorted ascending by lock rank. Caller must hold db.mu (any mode).
func (db *DB) resolveShards(names []string) ([]*shardState, error) {
	ss := db.shards.Load()
	out := make([]*shardState, 0, len(names))
	seen := make(map[*shardState]bool, len(names))
	for _, n := range names {
		sh, ok := ss.byName[n]
		if !ok {
			return nil, fmt.Errorf("warehouse: schema %q does not exist", n)
		}
		if !seen[sh] {
			seen[sh] = true
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ord < out[j].ord })
	return out, nil
}

// DoSchema runs fn as one shard-scoped write transaction: fn runs
// holding the DB read lock plus the schema's shard lock, so it may
// mutate that schema's tables while writers against other schemas run
// concurrently. Tables fn touched publish fresh snapshots and the
// shard epoch bumps when DoSchema returns. fn must not touch tables
// outside the schema and must not issue DDL.
func (db *DB) DoSchema(schema string, fn func() error) error {
	return db.DoSchemas([]string{schema}, fn)
}

// DoSchemas is DoSchema over several schemas: the shard locks are
// taken in the global lock order, so concurrent multi-schema shard
// transactions never deadlock. Each touched schema commits (and bumps
// its epoch) independently when fn returns.
func (db *DB) DoSchemas(schemas []string, fn func() error) error {
	mTxns.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	shards, err := db.resolveShards(schemas)
	if err != nil {
		return err
	}
	for _, sh := range shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(shards) - 1; i >= 0; i-- {
			db.commitShardLocked(shards[i])
			shards[i].mu.Unlock()
		}
	}()
	return fn()
}

// ViewSchemas runs fn while holding the read lock on the DB and on the
// named schemas' shards: writers against those schemas are excluded
// (so fn observes a consistent cut across them), writers against other
// schemas proceed.
func (db *DB) ViewSchemas(schemas []string, fn func() error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	shards, err := db.resolveShards(schemas)
	if err != nil {
		return err
	}
	for _, sh := range shards {
		sh.mu.RLock()
	}
	defer func() {
		for i := len(shards) - 1; i >= 0; i-- {
			shards[i].mu.RUnlock()
		}
	}()
	return fn()
}

// lockAllShardsRead read-locks every shard in lock order; the caller
// must hold db.mu (any mode) and call the returned unlock when done.
// This is how the global View and snapshot paths exclude shard writers
// now that those no longer need the exclusive DB lock.
func (db *DB) lockAllShardsRead() (unlock func()) {
	list := db.shards.Load().list
	for _, sh := range list {
		sh.mu.RLock()
	}
	return func() {
		for i := len(list) - 1; i >= 0; i-- {
			list[i].mu.RUnlock()
		}
	}
}
