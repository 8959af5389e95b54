package aggregate

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Full rebuild of a realm's aggregation tables. The scan phase runs
// against the published columnar snapshots of the fact tables — a read
// lock is held only for the few pointer loads that capture a consistent
// snapshot set, then a bounded pool of workers folds each schema's
// column vectors into a private partial-aggregation map with no lock at
// all. Partials are then merged deterministically (in source-schema
// order) and installed as one bulk columnar load per aggregation table
// in a single write transaction, so readers never observe a half-built
// table and writers are only blocked for the install, not the scans.

// The fold state itself — accRow, partial, folder — lives in delta.go:
// it is the same structure a pushdown Delta carries across the wire,
// and sharing one implementation is what makes the pushdown ≡
// fact-replication equivalence structural.

// numCol reads one numeric column of a snapshot, widening integers the
// way Row.Float does; absent or non-numeric columns read as zero, and
// so do NULL cells.
type numCol struct {
	f     []float64
	i     []int64
	nulls []bool
}

func (c numCol) at(pos int) float64 {
	if c.nulls != nil && c.nulls[pos] {
		return 0
	}
	if c.f != nil {
		return c.f[pos]
	}
	if c.i != nil {
		return float64(c.i[pos])
	}
	return 0
}

func numColOf(ch warehouse.ColChunk, name string) numCol {
	ci, ok := ch.ColIndex(name)
	if !ok {
		return numCol{}
	}
	return numCol{f: ch.FloatCol(ci), i: ch.IntCol(ci), nulls: ch.NullCol(ci)}
}

// dimReader renders one dimension's value from a snapshot position:
// categorical dimensions read the raw string (empty when absent, NULL
// or not a string column, like Row.String), numeric dimensions bin the
// widened value into the configured aggregation level.
type dimReader struct {
	numeric   bool
	strs      []string
	nulls     []bool
	num       numCol
	levels    config.AggregationLevels
	hasLevels bool
}

func (d *dimReader) value(pos int) string {
	if !d.numeric {
		if d.strs == nil || (d.nulls != nil && d.nulls[pos]) {
			return ""
		}
		return d.strs[pos]
	}
	if d.hasLevels {
		return d.levels.BucketFor(d.num.at(pos))
	}
	return "all"
}

// factReader resolves one fact-table chunk's columns for aggregation:
// the time column, one reader per dimension, one numeric reader per
// measure column and per weighted pair. Resolution happens once per
// chunk; the per-row loop then touches only typed vectors at
// chunk-local positions.
type factReader struct {
	times  []time.Time
	tnulls []bool
	dims   []dimReader
	meas   []numCol
	wpairs [][2]numCol
}

func (e *Engine) newFactReader(info realm.Info, ch warehouse.ColChunk, cols, weights []string) (*factReader, error) {
	fr := &factReader{}
	ti, ok := ch.ColIndex(info.TimeColumn)
	if !ok {
		return nil, fmt.Errorf("aggregate: fact row missing time column %q", info.TimeColumn)
	}
	fr.times = ch.TimeCol(ti)
	if fr.times == nil {
		return nil, fmt.Errorf("aggregate: time column %q is not a time column, want time.Time", info.TimeColumn)
	}
	fr.tnulls = ch.NullCol(ti)
	fr.dims = make([]dimReader, len(info.Dimensions))
	for i, d := range info.Dimensions {
		dr := dimReader{numeric: d.Numeric}
		if d.Numeric {
			dr.num = numColOf(ch, d.Column)
			dr.levels, dr.hasLevels = e.levels[d.ID]
		} else if ci, ok := ch.ColIndex(d.Column); ok {
			dr.strs = ch.StringCol(ci)
			dr.nulls = ch.NullCol(ci)
		}
		fr.dims[i] = dr
	}
	fr.meas = make([]numCol, len(cols))
	for i, c := range cols {
		fr.meas[i] = numColOf(ch, c)
	}
	fr.wpairs = make([][2]numCol, len(weights))
	for i, w := range weights {
		a, b := splitPair(w)
		fr.wpairs[i] = [2]numCol{numColOf(ch, a), numColOf(ch, b)}
	}
	return fr, nil
}

// splitPair splits a "col*weight" pair name.
func splitPair(pair string) (string, string) {
	for i := 0; i < len(pair); i++ {
		if pair[i] == '*' {
			return pair[:i], pair[i+1:]
		}
	}
	return pair, ""
}

// eachFact is the one loop that decodes fact rows for aggregation —
// the rebuild scan, the pushdown folder's snapshot fold and both
// boxed-row folds (which first turn their batch into a transient chunk
// with warehouse.Table.RowsChunk) all run it, so there is no second
// rendering for them to disagree with. Every live position of ch that
// skip (nil = keep all) does not reject is rendered as (time, dimension
// values, measure values, weighted products) and handed to visit; the
// slices are reused between calls, so visit copies what it keeps. A
// NULL time cell is an error, as the row cannot be bucketed.
func (e *Engine) eachFact(info realm.Info, ch warehouse.ColChunk, cols, weights []string,
	skip func(pos int) bool, visit func(t time.Time, dims []string, vals, wvals []float64)) error {

	if ch.Rows() == 0 {
		return nil
	}
	fr, err := e.newFactReader(info, ch, cols, weights)
	if err != nil {
		return err
	}
	dims := make([]string, len(fr.dims))
	vals := make([]float64, len(fr.meas))
	wvals := make([]float64, len(fr.wpairs))
	dead := ch.Tombstones()
	for pos := 0; pos < ch.Rows(); pos++ {
		if dead[pos] || (skip != nil && skip(pos)) {
			continue
		}
		if fr.tnulls[pos] {
			return fmt.Errorf("aggregate: time column %q is <nil>, want time.Time", info.TimeColumn)
		}
		for i := range fr.dims {
			dims[i] = fr.dims[i].value(pos)
		}
		for i := range fr.meas {
			vals[i] = fr.meas[i].at(pos)
		}
		for i := range fr.wpairs {
			wvals[i] = fr.wpairs[i][0].at(pos) * fr.wpairs[i][1].at(pos)
		}
		visit(fr.times[pos], dims, vals, wvals)
	}
	return nil
}

// foldFacts folds each fact eachFact yields into the folder route picks
// for its dimension values (nil drops the fact) and returns how many
// were folded.
func (e *Engine) foldFacts(info realm.Info, ch warehouse.ColChunk, cols, weights []string,
	skip func(pos int) bool, route func(dims []string) *folder) (int, error) {

	n := 0
	err := e.eachFact(info, ch, cols, weights, skip, func(t time.Time, dims []string, vals, wvals []float64) {
		if f := route(dims); f != nil {
			f.fold(t, dims, vals, wvals)
			n++
		}
	})
	return n, err
}

// scanPartials folds every live fact row of one snapshot into fresh
// per-shard partials: out[k] holds the groups routing to shard k (nil
// for shards the caller did not ask for — want nil means all). Runs
// lock-free against the immutable snapshot, chunk by chunk: a cold
// sealed segment is materialized only when the scan reaches it (and is
// evictable again as soon as the scan moves on), so the scan's
// resident footprint is one segment plus the backend's budget — never
// the whole table.
func (e *Engine) scanPartials(info realm.Info, td *warehouse.TableData, sourceSchema string,
	rt shardRouter, want []bool, cols, weights []string) ([]partial, int, error) {

	folders := make([]*folder, rt.shards)
	route := func(dims []string) *folder {
		k := rt.shardOf(sourceSchema, dims)
		if want != nil && !want[k] {
			return nil
		}
		if folders[k] == nil {
			folders[k] = newFolder()
		}
		return folders[k]
	}
	n := 0
	for chunk := 0; chunk < td.NumChunks(); chunk++ {
		folded, err := e.foldFacts(info, td.Chunk(chunk), cols, weights, nil, route)
		if err != nil {
			return nil, 0, err
		}
		n += folded
	}
	out := make([]partial, rt.shards)
	for k, f := range folders {
		if f != nil {
			out[k] = f.p // nil partials merge (and install) as empty
		}
	}
	return out, n, nil
}

// buildAggColumns renders one period's merged groups as the columnar
// payload of the period's aggregation table, rows in sorted group-key
// order (deterministic installs: replicas replaying the resulting LOAD
// event end up bit-identical).
func buildAggColumns(info realm.Info, p Period, cols, weights []string, groups map[string]*accRow) *warehouse.ColumnData {
	def := aggDef(info, p)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := len(keys)
	nd := len(info.Dimensions)
	cd := &warehouse.ColumnData{Rows: n,
		Names: make([]string, len(def.Columns)),
		Cols:  make([]warehouse.ColumnVector, len(def.Columns))}
	for i, c := range def.Columns {
		cd.Names[i] = c.Name
	}
	periodKeys := make([]int64, n)
	dimVecs := make([][]string, nd)
	for d := range dimVecs {
		dimVecs[d] = make([]string, n)
	}
	ns := make([]int64, n)
	lastTS := make([]float64, n)
	measVecs := make([][]float64, 4*len(cols)) // sum,min,max,last per measure
	for i := range measVecs {
		measVecs[i] = make([]float64, n)
	}
	wsumVecs := make([][]float64, len(weights))
	for i := range wsumVecs {
		wsumVecs[i] = make([]float64, n)
	}
	for ri, k := range keys {
		acc := groups[k]
		periodKeys[ri] = acc.periodKey
		for d := 0; d < nd; d++ {
			dimVecs[d][ri] = acc.dims[d]
		}
		ns[ri] = acc.n
		lastTS[ri] = acc.lastTS
		for i := range cols {
			measVecs[4*i][ri] = acc.sums[i]
			measVecs[4*i+1][ri] = acc.mins[i]
			measVecs[4*i+2][ri] = acc.maxs[i]
			measVecs[4*i+3][ri] = acc.lasts[i]
		}
		for i := range weights {
			wsumVecs[i][ri] = acc.wsums[i]
		}
	}
	ci := 0
	cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeInt, Ints: periodKeys}
	ci++
	for d := 0; d < nd; d++ {
		cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeString, Strs: dimVecs[d]}
		ci++
	}
	cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeInt, Ints: ns}
	ci++
	cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeFloat, Floats: lastTS}
	ci++
	for i := range measVecs {
		cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeFloat, Floats: measVecs[i]}
		ci++
	}
	for i := range wsumVecs {
		cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeFloat, Floats: wsumVecs[i]}
		ci++
	}
	return cd
}

// Source identifies one input to a realm rebuild: a schema holding
// either the realm's raw fact table (Pushdown false — the hub scans
// and folds every live row) or a pushdown member's replicated
// partial-aggregate tables (Pushdown true — the hub loads the member's
// cumulative bins from its pagg tables, see pagg.go, and merges them
// where the fact scan's partial would have merged). Both kinds produce
// one partial per source, merged in source order, so mixing them in a
// federation keeps the rebuild bit-identical to all-facts.
type Source struct {
	Schema   string
	Pushdown bool
}

func factSources(schemas []string) []Source {
	out := make([]Source, len(schemas))
	for i, s := range schemas {
		out[i] = Source{Schema: s}
	}
	return out
}

// Reaggregate rebuilds the realm's aggregation tables — every shard —
// from the given fact source schemas. This is the paper's config-change
// path: "update the appropriate configuration file on the federation
// hub, then re-aggregate all raw federation data" (§II-C3) — raw data
// is untouched, so nothing is lost. It is also the fallback whenever
// the incremental path cannot keep the aggregates current (updates,
// deletes, truncates, loose reloads).
func (e *Engine) Reaggregate(info realm.Info, sourceSchemas []string) (int, error) {
	return e.reaggregate(info, factSources(sourceSchemas), nil)
}

// ReaggregateFrom is Reaggregate over mixed fact/pushdown sources.
func (e *Engine) ReaggregateFrom(info realm.Info, sources []Source) (int, error) {
	return e.reaggregate(info, sources, nil)
}

// ReaggregateShards rebuilds only the named shards' aggregation
// tables. A rebuild triggered by a mutation that maps to one shard —
// a loose reload of one member schema under source-schema routing —
// pays for that shard alone; the other shards' tables are not touched
// and their cached charts stay valid.
func (e *Engine) ReaggregateShards(info realm.Info, sourceSchemas []string, shards []int) (int, error) {
	return e.reaggregate(info, factSources(sourceSchemas), shards)
}

// ReaggregateShardsFrom is ReaggregateShards over mixed sources.
func (e *Engine) ReaggregateShardsFrom(info realm.Info, sources []Source, shards []int) (int, error) {
	return e.reaggregate(info, sources, shards)
}

// reaggregate scans the source schemas with a work-stealing worker
// pool, merges each shard's per-schema partials in source-schema
// order (so floating-point accumulation associates exactly like the
// sequential reference), and installs each shard independently under
// its own schema's shard lock — there is no shared install lock, so
// shard installs proceed in parallel with each other and with chart
// queries against other shards. only selects the shards to rebuild
// (nil = all).
func (e *Engine) reaggregate(info realm.Info, sources []Source, only []int) (int, error) {
	st, err := e.shardTargets(info)
	if err != nil {
		return 0, err
	}
	rt := e.router(info)
	var want []bool // nil = rebuild every shard
	if only != nil {
		want = make([]bool, rt.shards)
		for _, k := range only {
			if k < 0 || k >= rt.shards {
				return 0, fmt.Errorf("aggregate: realm %s has no shard %d", info.Name, k)
			}
			want[k] = true
		}
	}
	sourceSchemas := make([]string, len(sources))
	for i, s := range sources {
		sourceSchemas[i] = s.Schema
	}
	tabs := make([]*warehouse.Table, len(sources))       // fact sources
	paggTabs := make([][]*warehouse.Table, len(sources)) // pushdown sources, indexed like Periods()
	for i, s := range sources {
		if s.Pushdown {
			paggTabs[i] = e.paggTables(info, s.Schema)
			continue
		}
		tab, err := e.db.TableIn(s.Schema, info.FactTable)
		if err != nil {
			return 0, err
		}
		tabs[i] = tab
	}
	// Under source-schema routing a whole schema maps to one shard, so
	// scans of schemas outside the wanted set are skipped entirely; in
	// resource mode every schema can feed every shard and all scans run
	// (unwanted rows are dropped after routing, before folding).
	scanIdx := make([]int, 0, len(sources))
	for i := range sources {
		if want != nil && rt.bySchema() && !want[rt.shardOfSchema(sourceSchemas[i])] {
			continue
		}
		scanIdx = append(scanIdx, i)
	}
	// Capture the published snapshot of every source table inside one
	// brief read transaction: the shard read locks exclude writers for
	// a few pointer loads, so the snapshot set is a consistent cut
	// across schemas even when one write transaction spans several of
	// them. The scans themselves then run with no lock held at all —
	// chart queries and replication writes proceed concurrently.
	facts := make([]*warehouse.TableData, len(sources))
	paggData := make([][]*warehouse.TableData, len(sources))
	err = e.db.ViewSchemas(sourceSchemas, func() error {
		for i, tab := range tabs {
			if tab != nil {
				facts[i] = tab.Data()
			}
		}
		for i, pts := range paggTabs {
			if pts == nil {
				continue
			}
			paggData[i] = make([]*warehouse.TableData, len(pts))
			for pi, pt := range pts {
				if pt != nil {
					paggData[i][pi] = pt.Data()
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	mRebuilds.Inc()
	defer mRealmAggSeconds.With(info.Name).ObserveSince(time.Now())

	workers := e.rebuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scanIdx) {
		workers = len(scanIdx)
	}
	workers = max(workers, 1)
	cols, weights := measureColumns(info)

	// Scan phase: a work-stealing pool over the per-schema scan tasks.
	// Workers pull the next unscanned schema from a shared counter, so
	// one oversized member schema never serializes the tail the way a
	// fixed split would — the remaining workers drain the other schemas
	// meanwhile. A pushdown source does no fact scan at all: its
	// partial loads straight from the member's replicated bins.
	partials := make([][]partial, len(sources)) // [source][shard]
	counts := make([]int, len(sources))
	errs := make([]error, len(sources))
	var nextScan atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(nextScan.Add(1)) - 1
				if t >= len(scanIdx) {
					return
				}
				i := scanIdx[t]
				if sources[i].Pushdown {
					partials[i], counts[i], errs[i] = e.paggPartials(info, paggData[i], sourceSchemas[i], rt, want, cols, weights)
				} else {
					partials[i], counts[i], errs[i] = e.scanPartials(info, facts[i], sourceSchemas[i], rt, want, cols, weights)
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, i := range scanIdx {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += counts[i]
	}

	// Merge + install phase: one task per wanted shard, again
	// work-stealing. Each task merges the shard's per-schema partials
	// in schema order and installs them into the shard's own schema
	// under that schema's shard lock — one bulk columnar load per
	// aggregation table, all periods in one shard transaction, so no
	// reader ever sees a half-built shard and the binlog carries one
	// LOAD event per table.
	installIdx := make([]int, 0, rt.shards)
	for k := 0; k < rt.shards; k++ {
		if want == nil || want[k] {
			installIdx = append(installIdx, k)
		}
	}
	iworkers := min(workers, len(installIdx))
	ierrs := make([]error, len(installIdx))
	var nextInstall atomic.Int64
	var iwg sync.WaitGroup
	for w := 0; w < max(iworkers, 1); w++ {
		iwg.Add(1)
		go func() {
			defer iwg.Done()
			for {
				t := int(nextInstall.Add(1)) - 1
				if t >= len(installIdx) {
					return
				}
				ierrs[t] = e.installShard(info, installIdx[t], st[installIdx[t]], partials, cols, weights)
			}
		}()
	}
	iwg.Wait()
	for _, err := range ierrs {
		if err != nil {
			return 0, err
		}
	}
	mFactsApplied.Add(uint64(total))
	return total, nil
}

// installShard merges one shard's per-schema partials (in schema
// order) and installs them as bulk columnar loads under the shard
// schema's own lock.
func (e *Engine) installShard(info realm.Info, k int, targets []target, partials [][]partial, cols, weights []string) error {
	start := time.Now()
	merged := make(partial, len(Periods()))
	rows := 0
	for _, ps := range partials {
		if ps != nil {
			merged.merge(ps[k])
		}
	}
	err := e.db.DoSchema(e.aggSchemaShard(info, k), func() error {
		for _, tg := range targets {
			cd := buildAggColumns(info, tg.period, cols, weights, merged[tg.period])
			rows += cd.Rows
			if err := tg.tab.ReplaceAllColumns(cd); err != nil {
				return err
			}
		}
		return nil
	})
	shard := strconv.Itoa(k)
	mShardRebuilds.With(shard).Inc()
	mShardRebuildSeconds.With(shard).ObserveSince(start)
	mShardAggRows.With(shard).Set(float64(rows))
	return err
}
