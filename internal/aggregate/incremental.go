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
// fold commutes with a full rebuild — non-additive mutations recompute
// instead: updates and deletes the groups they touched (ReaggregateFrom
// with a scope), a truncate the whole realm.

// factEntry is one parsed fact's contribution, retained in arrival
// order: the merge replays entries one at a time so floating-point
// accumulation associates exactly like the per-fact sequential fold a
// full rebuild performs — the fold/rebuild equivalence is bit-exact,
// not merely approximate. vals and wvals are sub-slices of one
// per-batch arena.
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
// batch becomes a transient column chunk, is decoded by eachFact and
// grouped by period with no lock held; one write transaction on the
// realm's aggregate schema then updates each affected aggregation row
// once — one keyed batch upsert per table, through typed column
// vectors — while folding each group's facts sequentially to keep
// float accumulation identical to a full rebuild. A row failing
// validation aborts the fold before any table is touched; the caller
// must schedule a full rebuild if it cannot tolerate the dropped batch.
func (e *Engine) ApplyFactRows(info realm.Info, sourceSchema string, rows [][]any) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	fact, err := e.db.TableIn(sourceSchema, info.FactTable)
	if err != nil {
		return 0, err
	}
	targets, err := e.targets(info)
	if err != nil {
		return 0, err
	}
	codec := newAggCodec(info)

	// Phase 1, lock-free: decode the batch and group it per period.
	ch, err := fact.RowsChunk(rows)
	if err != nil {
		return 0, fmt.Errorf("aggregate: incremental fold into %s: %w", info.Name, err)
	}
	periods := Periods()
	groups := make([]map[string]*groupFacts, len(periods))
	for i := range groups {
		groups[i] = make(map[string]*groupFacts)
	}
	var keyBuf []byte
	nv, nw := len(codec.cols), len(codec.weights)
	arena := make([]float64, 0, len(rows)*(nv+nw)) // every fact's vals, then its wvals
	err = e.eachFact(info, ch, codec.cols, codec.weights, nil, func(t time.Time, dims []string, vals, wvals []float64) {
		off := len(arena)
		arena = append(append(arena, vals...), wvals...)
		entry := factEntry{
			ts:    float64(t.UnixNano()) / 1e9,
			vals:  arena[off : off+nv : off+nv],
			wvals: arena[off+nv : off+nv+nw : off+nv+nw],
		}
		var dimsCopy []string // shared by every period's group of this fact
		for pi, period := range periods {
			pk := period.Key(t)
			keyBuf = groupKey(keyBuf, pk, dims)
			g, ok := groups[pi][string(keyBuf)]
			if !ok {
				if dimsCopy == nil {
					dimsCopy = append([]string(nil), dims...)
				}
				g = &groupFacts{periodKey: pk, dims: dimsCopy}
				groups[pi][string(keyBuf)] = g
			}
			g.entries = append(g.entries, entry)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("aggregate: incremental fold into %s: %w", info.Name, err)
	}

	// Phase 2: merge into the aggregation tables in one transaction.
	err = e.db.Do(func() error {
		for pi, tg := range targets {
			if err := mergeGroupsInto(tg.tab, codec, groups[pi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	mIncrementalFacts.Add(uint64(len(rows)))
	return len(rows), nil
}

// mergeGroupsInto combines one period's grouped batch entries with the
// aggregation table's existing rows and writes every group in one
// keyed batch upsert. Must run under the DB write lock.
func mergeGroupsInto(tab *warehouse.Table, c *aggCodec, groups map[string]*groupFacts) error {
	if len(groups) == 0 {
		return nil
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic row order in the table
	out := c.newColumns(len(keys))
	sorted := make([]*groupFacts, len(keys))
	for ri, k := range keys {
		g := groups[k]
		sorted[ri] = g
		out.putKey(ri, g.periodKey, g.dims)
	}
	current, err := tab.LocateColumns(out.cd)
	if err != nil {
		return err
	}
	readers := map[int]*aggReader{} // by chunk base: the stored rows span sealed chunks and the tail
	acc := c.newAcc()
	for ri, g := range sorted {
		entries := g.entries
		if pos := current[ri]; pos >= 0 {
			ch, lp := tab.ChunkAt(pos)
			r := readers[ch.Base()]
			if r == nil {
				if r, err = c.reader(ch); err != nil {
					return err
				}
				readers[ch.Base()] = r
			}
			r.load(lp, &acc)
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
		out.putState(ri, &acc)
	}
	return tab.UpsertColumns(out.cd)
}
