package aggregate

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Aggregation pushdown: the mergeable partial-aggregate delta.
//
// A Delta is the unit of aggregation state that crosses the federation
// wire when a satellite replicates partial aggregates instead of raw
// facts (replication mode "pushdown"). It is the same running state the
// fold path keeps per aggregation group — n and the realm's rowLayout
// state — held per period bin, so satellite-side folding and
// hub-side merging share one implementation (the accRow fold below)
// and the pushdown ≡ fact-replication equivalence is structural, not
// coincidental.
//
// Bit-exactness contract: a satellite folds its committed facts
// sequentially, in binlog (= fact-table row) order, with exactly the
// per-fact semantics of a full rebuild's scan. Because fold state is
// per group, the hub can load a member's cumulative bins from its pagg
// tables (see pagg.go) and merge them in source order exactly where a
// fact-mode rebuild would have merged the member's scanned partial —
// the float accumulation order is identical, so the resulting
// aggregation tables are row-bit-identical to fact replication.
//
// Deltas carry cumulative bin values with replace-on-apply semantics:
// a re-sent delta is idempotent, and a sender restart simply re-folds
// from its fact-table snapshot and ships a Reset delta (see
// replicate's pushdown folder), so crash recovery needs no delta-level
// positions.

// accRow is one partially aggregated group: the running state an
// aggregation-table row stores, held in memory while a rebuild scans
// or a batch merges (and inside a Delta while it crosses the wire).
// state holds the realm's rowLayout state in slot order; lastTS is the
// timestamp the lasts follow, and stays zero when the layout has none.
type accRow struct {
	periodKey int64
	dims      []string
	n         int64
	lastTS    float64
	state     []float64
}

// newAcc returns a zero accumulator of the layout's shape with no key.
func (l *rowLayout) newAcc() accRow { return accRow{state: make([]float64, len(l.state))} }

// newAccRow seeds a group's accumulator from its first fact. The
// caller may reuse dims, vals and wvals; they are copied.
func newAccRow(l *rowLayout, periodKey int64, dims []string, ts float64, vals, wvals []float64) *accRow {
	acc := l.newAcc()
	acc.periodKey = periodKey
	acc.dims = append([]string(nil), dims...)
	acc.seed(l, ts, vals, wvals)
	return &acc
}

// seed sets the running state to that of a group holding the one fact
// given; the key is left as it is.
func (acc *accRow) seed(l *rowLayout, ts float64, vals, wvals []float64) {
	acc.n = 1
	if l.lastTS {
		acc.lastTS = ts
	}
	for i, src := range l.src {
		acc.state[i] = vals[src]
	}
	copy(acc.state[l.at[stateWSum]:], wvals)
}

// fold adds one fact to the accumulator: n and sums add, maxes
// compare, and lasts follow the newest timestamp with ties won by the
// later fold — one loop per state kind over its slots. This is THE
// fold: every fact eachFact decodes ends up here, through folder.fold
// (rebuild scan, pushdown folder) or foldBatch.mergeInto (incremental
// batch).
func (acc *accRow) fold(l *rowLayout, ts float64, vals, wvals []float64) {
	acc.n++
	s := acc.state
	for i := range l.at[stateMax] {
		s[i] += vals[l.src[i]]
	}
	for i := l.at[stateMax]; i < l.at[stateLast]; i++ {
		if v := vals[l.src[i]]; v > s[i] {
			s[i] = v
		}
	}
	if l.lastTS && ts >= acc.lastTS {
		acc.lastTS = ts
		for i := l.at[stateLast]; i < l.at[stateWSum]; i++ {
			s[i] = vals[l.src[i]]
		}
	}
	for i, v := range wvals {
		s[l.at[stateWSum]+i] += v
	}
}

// mergeFrom folds another accumulator of the same group into acc.
// Last timestamp ties are won by the merged-in side, matching a
// sequential scan where b's facts arrive after acc's — callers must
// merge in source order.
func (acc *accRow) mergeFrom(l *rowLayout, b *accRow) {
	acc.n += b.n
	s, bs := acc.state, b.state
	for i := range l.at[stateMax] {
		s[i] += bs[i]
	}
	for i := l.at[stateMax]; i < l.at[stateLast]; i++ {
		if bs[i] > s[i] {
			s[i] = bs[i]
		}
	}
	if l.lastTS && b.lastTS >= acc.lastTS {
		acc.lastTS = b.lastTS
		copy(s[l.at[stateLast]:l.at[stateWSum]], bs[l.at[stateLast]:])
	}
	for i := l.at[stateWSum]; i < len(s); i++ {
		s[i] += bs[i]
	}
}

// partial accumulates one source schema's facts, per period.
type partial map[Period]map[string]*accRow

// merge folds another partial of layout l into p. Call in
// source-schema order: last timestamp ties are won by the later-merged
// schema, matching a sequential scan over the schemas.
func (p partial) merge(l *rowLayout, other partial) {
	for period, groups := range other {
		dst := p[period]
		if len(dst) == 0 {
			p[period] = groups
			continue
		}
		for key, b := range groups {
			a, ok := dst[key]
			if !ok {
				dst[key] = b
				continue
			}
			a.mergeFrom(l, b)
		}
	}
}

// groupKey renders the group key — period key plus NUL-joined
// dimension values — into buf, returning the extended buffer. Every
// path that probes or sorts groups by string uses this one rendering.
func groupKey(buf []byte, periodKey int64, dims []string) []byte {
	return appendDims(strconv.AppendInt(buf[:0], periodKey, 10), dims)
}

// appendDims appends the NUL-prefixed dimension values of a group key
// to b.
func appendDims(b []byte, dims []string) []byte {
	for _, d := range dims {
		b = append(b, 0)
		b = append(b, d...)
	}
	return b
}

// folder folds facts into a partial. The group key is rendered into a
// reused byte buffer, so the per-fact map probe allocates nothing; the
// key is only materialized as a string when a new group is created.
// With dirty tracking enabled (the pushdown delta folder), every
// touched group key is additionally recorded per period so a flush can
// ship only the bins changed since the previous one. With a scope (a
// scoped recompute), a fact folds only into the groups the scope names.
type folder struct {
	l       *rowLayout
	periods []Period
	p       partial
	groups  []map[string]*accRow // indexed like periods
	dirty   []map[string]bool    // nil unless trackDirty was called
	scope   Scope                // nil: every group
	keyBuf  []byte
}

func newFolder(l *rowLayout) *folder {
	periods := Periods()
	f := &folder{l: l, periods: periods, p: make(partial, len(periods)),
		groups: make([]map[string]*accRow, len(periods))}
	for i, period := range periods {
		g := make(map[string]*accRow)
		f.p[period] = g
		f.groups[i] = g
	}
	return f
}

// trackDirty enables per-period touched-key recording.
func (f *folder) trackDirty() {
	f.dirty = make([]map[string]bool, len(f.periods))
	for i := range f.dirty {
		f.dirty[i] = make(map[string]bool)
	}
}

// fold folds one fact into every period's accumulator — or, under a
// scope, into the scoped ones — and reports whether it folded into any.
// The caller may reuse dims, vals and wvals between calls.
func (f *folder) fold(t time.Time, dims []string, vals, wvals []float64) bool {
	ts := float64(t.UnixNano()) / 1e9
	folded := false
	for i, period := range f.periods {
		pk := period.Key(t)
		b := groupKey(f.keyBuf, pk, dims)
		f.keyBuf = b
		if f.scope != nil {
			if _, ok := f.scope[i][string(b)]; !ok {
				continue
			}
		}
		folded = true
		g := f.groups[i]
		acc, ok := g[string(b)] // compiler elides the string conversion
		if !ok {
			g[string(b)] = newAccRow(f.l, pk, dims, ts, vals, wvals)
		} else {
			acc.fold(f.l, ts, vals, wvals)
		}
		if f.dirty != nil {
			f.dirty[i][string(b)] = true
		}
	}
	return folded
}

// Bin is one aggregation group's partial-aggregate state as it crosses
// the wire: the exported form of accRow, State in the realm's rowLayout
// slot order. Values are cumulative — the hub replaces its stored bin,
// it never adds.
type Bin struct {
	PeriodKey int64
	Dims      []string
	N         int64
	LastTS    float64
	State     []float64
}

// PeriodBins is one period's bins, sorted by group key so the gob wire
// encoding of a Delta is stable (two flushes of identical state encode
// to identical bytes).
type PeriodBins struct {
	Period string
	Bins   []Bin
}

// Delta is a mergeable partial-aggregate update for one realm,
// shipped from a satellite to its hub in pushdown replication mode.
// Reset deltas carry the complete fold of the satellite's live fact
// table (the hub discards its previous bins for the member first);
// incremental deltas carry only bins touched since the last flush,
// with cumulative values. CoveredLSN is the satellite binlog position
// through which the realm's fact events are folded in — the delta
// supersedes raw fact replication up to that LSN, and the hub reports
// Position−CoveredLSN as the member's delta lag.
type Delta struct {
	Realm      string
	Reset      bool
	CoveredLSN uint64
	Periods    []PeriodBins
}

// Rows returns the number of bins the delta carries.
func (d Delta) Rows() int {
	n := 0
	for _, pb := range d.Periods {
		n += len(pb.Bins)
	}
	return n
}

// binOf copies one accumulator into its wire form.
func binOf(acc *accRow) Bin {
	return Bin{PeriodKey: acc.periodKey, Dims: append([]string(nil), acc.dims...), N: acc.n,
		LastTS: acc.lastTS, State: append([]float64(nil), acc.state...)}
}

// accOf copies one wire bin back into an accumulator.
func accOf(b Bin) *accRow {
	return &accRow{periodKey: b.PeriodKey, dims: append([]string(nil), b.Dims...), n: b.N,
		lastTS: b.LastTS, state: append([]float64(nil), b.State...)}
}

// toPartial converts a delta's bins back into the in-memory partial
// form the rebuild/install path works with.
func (d Delta) toPartial() (partial, error) {
	p := make(partial, len(d.Periods))
	var buf []byte
	for _, pb := range d.Periods {
		period, err := Parse(pb.Period)
		if err != nil {
			return nil, fmt.Errorf("aggregate: delta for realm %s: %w", d.Realm, err)
		}
		g := make(map[string]*accRow, len(pb.Bins))
		for _, b := range pb.Bins {
			buf = groupKey(buf, b.PeriodKey, b.Dims)
			g[string(buf)] = accOf(b)
		}
		p[period] = g
	}
	return p, nil
}

// MergeableRealm reports whether every metric of a realm uses an
// aggregate function with a correct partial-aggregate merge rule:
// sum/count/max are additive or comparable, avg rides as sum+count,
// and sum_last merges by newest last_ts exactly like the rebuild's
// source-order scan. A realm with any other function must
// replicate raw facts — the satellite forces fact mode for it with a
// startup warning rather than ever merging wrong.
func MergeableRealm(info realm.Info) error {
	for _, m := range info.Metrics {
		switch m.Func {
		case warehouse.AggSum, warehouse.AggCount, warehouse.AggAvg, warehouse.AggMax, warehouse.AggSumLast:
		default:
			return fmt.Errorf("aggregate: realm %s metric %q uses aggregate function %d with no partial-aggregate merge rule",
				info.Name, m.ID, m.Func)
		}
	}
	return nil
}

// LevelsDigest fingerprints the engine's aggregation-levels
// configuration. Pushdown bins are rendered with the satellite's
// levels, so the hub only grants pushdown to a satellite whose digest
// matches its own — a federation that deliberately aggregates members
// differently (paper §II-C3) falls back to fact replication for them.
func (e *Engine) LevelsDigest() string {
	ids := make([]string, 0, len(e.levels))
	for id := range e.levels {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		l := e.levels[id]
		fmt.Fprintf(h, "%s|%s", id, l.Unit)
		for _, b := range l.Buckets {
			fmt.Fprintf(h, "|%s:%g:%g", b.Label, b.Min, b.Max)
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// DeltaFolder folds one realm's committed facts into a cumulative
// partial on the satellite, producing Deltas on flush. It is owned by
// a single replication sender goroutine; it is not safe for concurrent
// use.
//
// The folder's state is always a prefix fold of the realm's fact
// table in row order: Reset re-folds from a consistent snapshot of the
// live table (capturing the binlog position the snapshot covers), and
// FoldRows appends facts in arrival order. Facts whose LSN is at or
// below Covered() are already in the fold and must not be folded
// again.
type DeltaFolder struct {
	e            *Engine
	info         realm.Info
	l            *rowLayout
	fact         *warehouse.Table
	f            *folder
	covered      uint64
	resetPending bool // next flush must carry Reset (fresh snapshot fold)
}

// NewDeltaFolder builds a pushdown folder for one realm over the
// engine's warehouse and aggregation levels. The realm's fact table
// must exist (Setup ran).
func (e *Engine) NewDeltaFolder(info realm.Info) (*DeltaFolder, error) {
	if err := MergeableRealm(info); err != nil {
		return nil, err
	}
	fact, err := e.db.TableIn(info.Schema, info.FactTable)
	if err != nil {
		return nil, err
	}
	l := stateLayout(info)
	f := newFolder(l)
	f.trackDirty()
	return &DeltaFolder{e: e, info: info, l: l, fact: fact, f: f}, nil
}

// Covered returns the binlog LSN through which the realm's fact events
// are folded in.
func (df *DeltaFolder) Covered() uint64 { return df.covered }

// SetCovered advances the covered position (facts up to lsn have been
// offered to the folder).
func (df *DeltaFolder) SetCovered(lsn uint64) {
	if lsn > df.covered {
		df.covered = lsn
	}
}

// Dirty reports whether any bins changed since the last flush.
func (df *DeltaFolder) Dirty() bool {
	if df.resetPending {
		return true
	}
	for _, d := range df.f.dirty {
		if len(d) > 0 {
			return true
		}
	}
	return false
}

// FoldRows folds positional fact rows (binlog insert payloads for the
// realm's fact table, in arrival order) into the cumulative partial.
// The rows must already reflect the route's filtering (the sender
// folds the rewriter's output).
func (df *DeltaFolder) FoldRows(rows [][]any) error {
	td, err := df.fact.RowsChunk(rows)
	if err == nil {
		_, err = df.e.foldFacts(df.info, td, nil, df.f)
	}
	if err != nil {
		return fmt.Errorf("aggregate: pushdown fold into %s: %w", df.info.Name, err)
	}
	return nil
}

// Reset discards the fold and rebuilds it from a consistent snapshot
// of the realm's live fact table, capturing the binlog position the
// snapshot covers (every fact event at or below it is in the fold;
// later events must still be offered via FoldRows). Rows whose
// "resource" column value is in excludeResources are skipped, mirroring
// the replication rewriter's filter, so the fold matches exactly what
// fact replication would have shipped. Returns the rows folded.
func (df *DeltaFolder) Reset(excludeResources map[string]bool) (int, error) {
	tab, err := df.e.db.TableIn(df.info.Schema, df.info.FactTable)
	if err != nil {
		return 0, err
	}
	var td *warehouse.TableData
	var covered uint64
	df.e.db.View(func() error {
		// Both captures happen under the read lock: a fact commit (table
		// mutation + binlog append) is atomic with respect to this view,
		// so the snapshot holds exactly the fact events at or below
		// covered.
		td = tab.Data()
		covered = df.e.db.Binlog().Last()
		return nil
	})
	fresh := newFolder(df.l)
	fresh.trackDirty()
	var skip func(pos int) bool
	if ci, ok := td.ColIndex("resource"); ok && len(excludeResources) > 0 {
		if res := td.StringCol(ci); res.Codes != nil {
			excluded := make([]bool, len(res.Dict)) // by code: each resource looked up once
			for c, r := range res.Dict {
				excluded[c] = excludeResources[r]
			}
			skip = func(pos int) bool { return excluded[res.Codes[pos]] }
		}
	}
	n, err := df.e.foldFacts(df.info, td, skip, fresh)
	if err != nil {
		return 0, err
	}
	// The dirty marks of the snapshot fold are irrelevant: the Reset
	// flush ships every bin.
	for i := range fresh.dirty {
		fresh.dirty[i] = make(map[string]bool)
	}
	df.f = fresh
	df.covered = covered
	df.resetPending = true
	return n, nil
}

// Flush emits the delta accumulated since the previous flush: every
// bin after a Reset, only the touched bins otherwise, always with
// cumulative values. It returns ok=false when there is nothing to
// ship. Flushing clears the dirty marks immediately — a failed send is
// recovered by the sender's reconnect Reset, not by replaying flushes.
func (df *DeltaFolder) Flush() (Delta, bool) {
	if !df.Dirty() {
		return Delta{}, false
	}
	d := Delta{Realm: df.info.Name, Reset: df.resetPending, CoveredLSN: df.covered}
	for i, period := range df.f.periods {
		groups := df.f.groups[i]
		var keys []string
		if df.resetPending {
			keys = make([]string, 0, len(groups))
			for k := range groups {
				keys = append(keys, k)
			}
		} else {
			keys = make([]string, 0, len(df.f.dirty[i]))
			for k := range df.f.dirty[i] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		bins := make([]Bin, 0, len(keys))
		for _, k := range keys {
			if acc := groups[k]; acc != nil {
				bins = append(bins, binOf(acc))
			}
		}
		d.Periods = append(d.Periods, PeriodBins{Period: period.String(), Bins: bins})
		df.f.dirty[i] = make(map[string]bool)
	}
	df.resetPending = false
	return d, true
}
