package aggregate

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Partial-aggregate (pagg) tables: the hub-side durable home of a
// pushdown member's replicated bins. One table per realm period lives
// in the member's fed_<instance> schema, with exactly the aggregation
// table's column layout (aggDef), keyed by period_key + dimensions.
// Applying a delta replaces bins — incremental deltas upsert the bins
// they carry (cumulative values), reset deltas replace the whole table
// set — so delta application is idempotent and needs no positions.
// A realm rebuild then loads a pushdown member's partial straight from
// these tables (paggPartials) instead of re-scanning replicated facts,
// and merges it in source order exactly where the fact scan's partial
// would have merged.
//
// The presence of pagg tables in a member schema is also the durable
// record that the member replicates in pushdown mode: the hub's
// rebuild source selection and the handshake's mode-switch guard both
// key off it.

// PaggTableName names the partial-aggregate table for a fact table +
// period ("jobfact_pagg_by_day").
func PaggTableName(fact string, p Period) string {
	return fmt.Sprintf("%s_pagg_by_%s", fact, p)
}

// paggDef is the aggregation-table layout under the pagg name: the
// pagg table is the member's partial in table form, and derived like
// the aggregation table (the member re-ships it on every connect).
func paggDef(info realm.Info, l *rowLayout, p Period) warehouse.TableDef {
	def := aggDef(info, l, p)
	def.Name = PaggTableName(info.FactTable, p)
	return def
}

// HasPagg reports whether schema holds replicated partial-aggregate
// tables for the realm.
func (e *Engine) HasPagg(info realm.Info, schema string) bool {
	s := e.db.Schema(schema)
	return s != nil && s.Table(PaggTableName(info.FactTable, Day)) != nil
}

// paggTables resolves a member schema's pagg tables, indexed like
// Periods(); entries are nil when absent.
func (e *Engine) paggTables(info realm.Info, schema string) []*warehouse.Table {
	out := make([]*warehouse.Table, len(Periods()))
	s := e.db.Schema(schema)
	if s == nil {
		return out
	}
	for i, p := range Periods() {
		out[i] = s.Table(PaggTableName(info.FactTable, p))
	}
	return out
}

// ApplyDelta installs one member's delta into its pagg tables under
// schema (fed_<instance>), creating them on first use. Bins replace:
// an incremental delta upserts each carried bin, a reset delta
// replaces every period table with exactly the carried bins. Holding
// the realm's mutex, it marks the realm stale when the delta is a reset
// (bins may also have disappeared), carried a bin, or failed, so no
// reader finds the new bins with the realm current. Returns the number
// of bins applied.
func (e *Engine) ApplyDelta(info realm.Info, schema string, d Delta) (rows int, err error) {
	st := e.realms[info.Name]
	st.mu.Lock()
	defer st.mu.Unlock()
	defer func() {
		if err != nil || d.Reset || rows > 0 {
			st.stale.Store(true)
		}
	}()
	start := time.Now()
	codec := st.codec
	p, err := d.toPartial()
	if err != nil {
		return 0, err
	}
	for _, pb := range d.Periods {
		for _, b := range pb.Bins {
			if len(b.Dims) != codec.nd || len(b.State) != len(codec.l.state) {
				return 0, fmt.Errorf("aggregate: delta bin for realm %s does not match the realm's shape (%d dims, %d state values)",
					d.Realm, codec.nd, len(codec.l.state))
			}
		}
	}
	s := e.db.EnsureSchema(schema)
	tabs := make(map[Period]*warehouse.Table, len(Periods()))
	for _, period := range Periods() {
		tab, err := s.EnsureTable(paggDef(info, codec.l, period))
		if err != nil {
			return 0, err
		}
		tabs[period] = tab
	}
	err = e.db.Do(func() error {
		for _, period := range Periods() {
			cd := codec.columns(p[period])
			rows += cd.Rows
			var err error
			if d.Reset {
				err = tabs[period].ReplaceAllColumns(cd) // the carried bins are the table
			} else {
				err = tabs[period].UpsertColumns(cd, nil) // carried bins replace by key
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	mPushdownDeltas.With("applied").Inc()
	mPushdownDeltaRows.With("applied").Add(uint64(rows))
	mPushdownMergeSeconds.Add(time.Since(start).Seconds())
	return rows, nil
}

// paggPartials loads a pushdown member's replicated bins (pds, indexed
// like Periods()) into one partial: the pushdown counterpart of
// scanPartials, with no fact scan at all — the member already folded
// its facts. Returns the number of bins loaded.
func paggPartials(codec *aggCodec, pds []*warehouse.TableData) (partial, int, error) {
	periods := Periods()
	p := make(partial, len(periods))
	n := 0
	var keyBuf []byte
	for pi, period := range periods {
		td := pds[pi]
		if td == nil {
			continue
		}
		g := make(map[string]*accRow)
		p[period] = g
		if td.Rows() == 0 {
			continue
		}
		r, err := codec.reader(td)
		if err != nil {
			return nil, 0, err
		}
		dead := td.Tombstones()
		for pos := 0; pos < td.Rows(); pos++ {
			if dead[pos] {
				continue
			}
			acc := r.accAt(pos)
			keyBuf = groupKey(keyBuf, acc.periodKey, acc.dims)
			g[string(keyBuf)] = acc
			n++
		}
	}
	return p, n, nil
}
