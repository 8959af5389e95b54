package aggregate

import (
	"fmt"
	"sort"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Incremental maintenance of the aggregation tables: replicated insert
// events fold straight into the per-period aggregates as they land, so
// the first chart query after a batch pays O(batch) instead of
// O(all federation facts). Aggregation is additive (counts and sums
// add, min/max compare, last_* follow the newest timestamp), so the
// fold commutes with a full rebuild — non-additive mutations (update,
// delete, truncate) must fall back to Reaggregate instead.

// factEntry is one parsed fact's contribution, retained in arrival
// order: the merge replays entries one at a time so floating-point
// accumulation associates exactly like the per-fact sequential fold a
// full rebuild performs — the fold/rebuild equivalence is bit-exact,
// not merely approximate.
type factEntry struct {
	ts    float64
	vals  []float64
	wvals []float64
}

// groupFacts collects one aggregation group's batch entries.
type groupFacts struct {
	periodKey int64
	dims      []string
	entries   []factEntry
}

// ApplyFactRows folds positional fact rows (binlog event payloads for
// sourceSchema's fact table) into all period aggregation tables. The
// batch becomes a transient column chunk, is decoded by eachFact,
// routed to shards and grouped with no lock held; one shard-scoped
// write transaction per touched shard then updates each affected
// aggregation row once — one GetByKey and one positional upsert per
// group instead of per fact — while folding the group's facts
// sequentially to keep float accumulation identical to a full rebuild.
// Untouched shards keep their epochs (and their cached charts). A row
// failing validation aborts the fold before any table is touched; the
// caller must schedule a full rebuild if it cannot tolerate the
// dropped batch.
func (e *Engine) ApplyFactRows(info realm.Info, sourceSchema string, rows [][]any) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	fact, err := e.db.TableIn(sourceSchema, info.FactTable)
	if err != nil {
		return 0, err
	}
	st, err := e.shardTargets(info)
	if err != nil {
		return 0, err
	}
	rt := e.router(info)
	codec := newAggCodec(info)

	// Phase 1, lock-free: decode the batch, route each fact to its shard
	// and group. Shard group maps allocate lazily — a batch from one
	// satellite typically touches the few shards its resources route to.
	ch, err := fact.RowsChunk(rows)
	if err != nil {
		return 0, fmt.Errorf("aggregate: incremental fold into %s: %w", info.Name, err)
	}
	periods := Periods()
	groups := make([][]map[string]*groupFacts, rt.shards) // [shard][period]
	var keyBuf []byte
	err = e.eachFact(info, ch, codec.cols, codec.weights, nil, func(t time.Time, dims []string, vals, wvals []float64) {
		entry := factEntry{
			ts:    float64(t.UnixNano()) / 1e9,
			vals:  append([]float64(nil), vals...),
			wvals: append([]float64(nil), wvals...),
		}
		k := rt.shardOf(dims)
		sg := groups[k]
		if sg == nil {
			sg = make([]map[string]*groupFacts, len(periods))
			for i := range sg {
				sg[i] = make(map[string]*groupFacts)
			}
			groups[k] = sg
		}
		var dimsCopy []string // shared by every period's group of this fact
		for pi, period := range periods {
			pk := period.Key(t)
			keyBuf = groupKey(keyBuf, pk, dims)
			g, ok := sg[pi][string(keyBuf)]
			if !ok {
				if dimsCopy == nil {
					dimsCopy = append([]string(nil), dims...)
				}
				g = &groupFacts{periodKey: pk, dims: dimsCopy}
				sg[pi][string(keyBuf)] = g
			}
			g.entries = append(g.entries, entry)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("aggregate: incremental fold into %s: %w", info.Name, err)
	}

	// Phase 2: merge into each touched shard's aggregation tables, one
	// shard-scoped transaction per shard (ascending, so concurrent
	// callers that ever take several shard locks agree on the order).
	for k, sg := range groups {
		if sg == nil {
			continue
		}
		err = e.db.DoSchema(e.aggSchemaShard(info, k), func() error {
			for pi, tg := range st[k] {
				if err := mergeGroupsInto(tg.tab, codec, sg[pi]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	mIncrementalFacts.Add(uint64(len(rows)))
	return len(rows), nil
}

// mergeGroupsInto combines one period's grouped batch entries with the
// aggregation table's existing rows, writing each group positionally.
// Must run under the DB write lock.
func mergeGroupsInto(tab *warehouse.Table, c *aggCodec, groups map[string]*groupFacts) error {
	if len(groups) == 0 {
		return nil
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic row order in the table
	key := make([]any, 1+c.nd)
	buf := make([]any, len(c.names))
	acc := c.newAcc()
	for _, k := range keys {
		g := groups[k]
		acc.periodKey, acc.dims = g.periodKey, g.dims
		key[0] = g.periodKey
		for i, d := range g.dims {
			key[1+i] = d
		}
		entries := g.entries
		if existing, ok := tab.GetByKey(key...); ok {
			c.load(existing, &acc)
		} else {
			first := entries[0]
			acc.n = 1
			acc.lastTS = first.ts
			copy(acc.sums, first.vals)
			copy(acc.mins, first.vals)
			copy(acc.maxs, first.vals)
			copy(acc.lasts, first.vals)
			copy(acc.wsums, first.wvals)
			entries = entries[1:]
		}
		for _, e := range entries {
			acc.fold(e.ts, e.vals, e.wvals)
		}
		if err := tab.UpsertRow(c.row(&acc, buf)); err != nil {
			return err
		}
	}
	return nil
}
