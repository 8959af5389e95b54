package aggregate

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Incremental maintenance of the aggregation tables: replicated insert
// events fold straight into the per-period aggregates as they land, so
// the first chart query after a batch pays O(batch) instead of
// O(all federation facts). Aggregation is additive (counts and sums
// add, maxes compare, lasts follow the newest timestamp), so the
// fold commutes with a full rebuild — non-additive mutations recompute
// instead: updates and deletes the groups they touched (ReaggregateFrom
// with a scope), a truncate the whole realm.

// ApplyFactRows folds positional fact rows (binlog event payloads for
// sourceSchema's fact table) into all period aggregation tables: the
// batch becomes a transient column view (warehouse.Table.RowsChunk),
// which folds as a write's view does (fold). A row failing validation
// aborts the fold before any table is touched; the caller must
// schedule a full rebuild if it cannot tolerate the dropped batch.
func (e *Engine) ApplyFactRows(info realm.Info, sourceSchema string, rows [][]any) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	fact, err := e.db.TableIn(sourceSchema, info.FactTable)
	if err != nil {
		return 0, err
	}
	td, err := fact.RowsChunk(rows)
	if err != nil {
		return 0, fmt.Errorf("aggregate: incremental fold into %s: %w", info.Name, err)
	}
	return e.fold(info, td, nil)
}

// fold folds the facts at positions at of a fact-table view (every live
// one when at is nil) into all period aggregation tables, and returns
// how many it folded. The facts are decoded by eachFact and grouped per
// period with no lock held; one write transaction on the realm's
// aggregate schema then writes each affected aggregation row once —
// one keyed batch upsert per table, through typed column vectors, whose
// one key probe per row also hands the fold the stored row it replaces
// — while folding each group's facts sequentially to keep float
// accumulation identical to a full rebuild.
func (e *Engine) fold(info realm.Info, td *warehouse.TableData, at []int) (int, error) {
	targets, err := e.targets(info)
	if err != nil {
		return 0, err
	}
	codec := e.codecOf(info)

	// Phase 1, lock-free: decode the facts and group them per period.
	n := len(at)
	if at == nil {
		n = td.Len()
	}
	b := newFoldBatch(codec, n)
	if err := e.eachFact(info, td, codec.l, at, nil, b.add); err != nil {
		return 0, fmt.Errorf("aggregate: incremental fold into %s: %w", info.Name, err)
	}

	// Phase 2: merge into the aggregation tables in one transaction.
	err = e.db.Do(func() error {
		for pi, tg := range targets {
			if err := b.mergeInto(tg.tab, pi); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	mIncrementalFacts.Add(uint64(n))
	return n, nil
}

// foldBatch is one batch's facts grouped per period. Everything is
// held in per-batch arrays: each fact's timestamp and measures by fact
// index, each distinct dimension tuple once, each period's groups in
// first-arrival order, and each group's facts as a chain of fact
// indices in arrival order. The merge replays a chain one fact at a
// time, so floating-point accumulation associates exactly like the
// per-fact sequential fold a full rebuild performs — the fold/rebuild
// equivalence is bit-exact, not merely approximate.
type foldBatch struct {
	c       *aggCodec
	periods []Period
	ts      []float64 // by fact
	meas    []float64 // by fact: its vals, then its wvals
	tuples  map[string]int32
	dicts   *dimDicts           // the dimension values of every tuple
	codes   []uint32            // by tuple: its nd dimension codes
	index   []map[groupID]int32 // by period: group → position in groups
	groups  [][]foldGroup       // by period, in first-arrival order
	next    [][]int32           // by period and fact: the group's next fact, or -1
	keyBuf  []byte
}

// groupID names a group within one period's batch: its period key and
// dimension tuple.
type groupID struct {
	periodKey int64
	tuple     int32
}

// foldGroup is one aggregation group of a batch: the first and last
// facts of its chain.
type foldGroup struct {
	id          groupID
	first, last int32
}

func newFoldBatch(c *aggCodec, n int) *foldBatch {
	periods := Periods()
	nm := len(c.l.cols) + len(c.l.weights)
	b := &foldBatch{c: c, periods: periods, ts: make([]float64, 0, n), meas: make([]float64, 0, n*nm),
		tuples: make(map[string]int32, n), dicts: newDimDicts(c.nd, n), index: make([]map[groupID]int32, len(periods)),
		groups: make([][]foldGroup, len(periods)), next: make([][]int32, len(periods))}
	next := make([]int32, len(periods)*n)
	for pi := range periods {
		b.index[pi] = make(map[groupID]int32, n)
		b.groups[pi] = make([]foldGroup, 0, n)
		b.next[pi] = next[pi*n : (pi+1)*n : (pi+1)*n]
	}
	return b
}

// add appends one decoded fact to its group in every period; it is
// eachFact's visitor, so it copies what it keeps.
func (b *foldBatch) add(t time.Time, dims []string, vals, wvals []float64) {
	fi := int32(len(b.ts))
	b.ts = append(b.ts, float64(t.UnixNano())/1e9)
	b.meas = append(append(b.meas, vals...), wvals...)
	b.keyBuf = appendDims(b.keyBuf[:0], dims)
	tuple, ok := b.tuples[string(b.keyBuf)]
	if !ok {
		tuple = int32(len(b.tuples))
		b.tuples[string(b.keyBuf)] = tuple
		b.codes = b.dicts.intern(b.codes, dims)
	}
	for pi, period := range b.periods {
		id := groupID{period.Key(t), tuple}
		b.next[pi][fi] = -1
		gi, ok := b.index[pi][id]
		if !ok {
			b.index[pi][id] = int32(len(b.groups[pi]))
			b.groups[pi] = append(b.groups[pi], foldGroup{id: id, first: fi, last: fi})
			continue
		}
		g := &b.groups[pi][gi]
		b.next[pi][g.last] = fi
		g.last = fi
	}
}

// fact returns fact fi's timestamp, measure values and weighted
// products.
func (b *foldBatch) fact(fi int32) (float64, []float64, []float64) {
	nv, nm := len(b.c.l.cols), len(b.c.l.cols)+len(b.c.l.weights)
	m := b.meas[int(fi)*nm : int(fi+1)*nm]
	return b.ts[fi], m[:nv], m[nv:]
}

// mergeInto writes period pi's groups into their aggregation table in
// one keyed batch upsert, rows in first-arrival order: the upsert's key
// probe hands each row the stored row it replaces, which is loaded as
// the group's starting state, and the group's facts fold on top of it
// (or of its first fact, for a new group). Must run under the DB write
// lock.
func (b *foldBatch) mergeInto(tab *warehouse.Table, pi int) error {
	groups, next, nd := b.groups[pi], b.next[pi], b.c.nd
	if len(groups) == 0 {
		return nil
	}
	out := b.c.newColumns(len(groups), b.dicts)
	for ri, g := range groups {
		t := int(g.id.tuple) * nd
		out.putKey(ri, g.id.periodKey, b.codes[t:t+nd])
	}
	var r *aggReader // of the stored rows, made when a group first replaces one
	l, acc := b.c.l, b.c.l.newAcc()
	return tab.UpsertColumns(out.cd, func(ri, replaced int) error {
		fi := groups[ri].first
		if replaced >= 0 {
			if r == nil {
				var err error
				if r, err = b.c.reader(tab.View()); err != nil {
					return err
				}
			}
			r.load(replaced, &acc)
		} else {
			ts, vals, wvals := b.fact(fi)
			acc.seed(l, ts, vals, wvals)
			fi = next[fi]
		}
		for ; fi >= 0; fi = next[fi] {
			ts, vals, wvals := b.fact(fi)
			acc.fold(l, ts, vals, wvals)
		}
		out.putState(ri, &acc)
		return nil
	})
}
