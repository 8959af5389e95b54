package aggregate

import (
	"fmt"
	"runtime"
	"strings"
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

func numColOf(td *warehouse.TableData, name string) numCol {
	ci, ok := td.ColIndex(name)
	if !ok {
		return numCol{}
	}
	return numCol{f: td.FloatCol(ci), i: td.IntCol(ci), nulls: td.NullCol(ci)}
}

// dimReader renders one dimension's value from a snapshot position:
// categorical dimensions read the raw string (empty when absent, NULL
// or not a string column, like Row.String), numeric dimensions bin the
// widened value into the configured aggregation level.
type dimReader struct {
	numeric   bool
	strs      warehouse.StringView
	nulls     []bool
	num       numCol
	levels    config.AggregationLevels
	hasLevels bool
}

func (d *dimReader) value(pos int) string {
	if !d.numeric {
		if d.strs.Codes == nil || (d.nulls != nil && d.nulls[pos]) {
			return ""
		}
		return d.strs.At(pos)
	}
	if d.hasLevels {
		return d.levels.BucketFor(d.num.at(pos))
	}
	return "all"
}

// factReader resolves one fact-table view's columns for aggregation:
// the time column, one reader per dimension, one numeric reader per
// measure column and per weighted pair of the layout. Resolution
// happens once per view; the per-row loop then touches only typed
// vectors.
type factReader struct {
	times  warehouse.TimeView
	tnulls []bool
	dims   []dimReader
	meas   []numCol
	wpairs [][2]numCol
}

// newFactReader resolves td for layout l's measures and weighted pairs;
// a nil l reads the time and the dimensions only.
func (e *Engine) newFactReader(info realm.Info, td *warehouse.TableData, l *rowLayout) (*factReader, error) {
	fr := &factReader{}
	ti, ok := td.ColIndex(info.TimeColumn)
	if !ok {
		return nil, fmt.Errorf("aggregate: fact row missing time column %q", info.TimeColumn)
	}
	fr.times = td.TimeCol(ti)
	if fr.times.Nanos == nil {
		return nil, fmt.Errorf("aggregate: time column %q is not a time column, want time.Time", info.TimeColumn)
	}
	fr.tnulls = td.NullCol(ti)
	fr.dims = make([]dimReader, len(info.Dimensions))
	for i, d := range info.Dimensions {
		dr := dimReader{numeric: d.Numeric}
		if d.Numeric {
			dr.num = numColOf(td, d.Column)
			dr.levels, dr.hasLevels = e.levels[d.ID]
		} else if ci, ok := td.ColIndex(d.Column); ok {
			dr.strs = td.StringCol(ci)
			dr.nulls = td.NullCol(ci)
		}
		fr.dims[i] = dr
	}
	if l == nil {
		return fr, nil
	}
	fr.meas = make([]numCol, len(l.cols))
	for i, c := range l.cols {
		fr.meas[i] = numColOf(td, c)
	}
	fr.wpairs = make([][2]numCol, len(l.weights))
	for i, w := range l.weights {
		a, b, _ := strings.Cut(w, "*")
		fr.wpairs[i] = [2]numCol{numColOf(td, a), numColOf(td, b)}
	}
	return fr, nil
}

// eachFact is the one loop that decodes fact rows for aggregation —
// the rebuild scan, the pushdown folder's snapshot fold, a write's
// fold and scope (over its Change's view) and both boxed-row folds
// (which first turn their batch into a transient view with
// warehouse.Table.RowsChunk) all run it, so there is no second
// rendering for them to disagree with. It visits the positions at of
// td, tombstoned or not, in order — or, when at is nil, every live
// position that skip (nil = keep all) does not reject — rendering each
// as (time, dimension values, and the measure values and weighted
// products of layout l — none for a nil l) for visit; the slices are
// reused between calls, so visit copies what it keeps. A NULL time
// cell is an error, as the row cannot be bucketed.
func (e *Engine) eachFact(info realm.Info, td *warehouse.TableData, l *rowLayout, at []int,
	skip func(pos int) bool, visit func(t time.Time, dims []string, vals, wvals []float64)) error {

	if td.Rows() == 0 {
		return nil
	}
	fr, err := e.newFactReader(info, td, l)
	if err != nil {
		return err
	}
	dims := make([]string, len(fr.dims))
	vals := make([]float64, len(fr.meas))
	wvals := make([]float64, len(fr.wpairs))
	one := func(pos int) error {
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
		visit(fr.times.At(pos), dims, vals, wvals)
		return nil
	}
	if at != nil {
		for _, pos := range at {
			if err := one(pos); err != nil {
				return err
			}
		}
		return nil
	}
	dead := td.Tombstones()
	for pos := 0; pos < td.Rows(); pos++ {
		if dead[pos] || (skip != nil && skip(pos)) {
			continue
		}
		if err := one(pos); err != nil {
			return err
		}
	}
	return nil
}

// foldFacts folds each fact eachFact yields into f, reading the
// columns f's layout folds, and returns how many were folded.
func (e *Engine) foldFacts(info realm.Info, td *warehouse.TableData, skip func(pos int) bool, f *folder) (int, error) {
	n := 0
	err := e.eachFact(info, td, f.l, nil, skip, func(t time.Time, dims []string, vals, wvals []float64) {
		if f.fold(t, dims, vals, wvals) {
			n++
		}
	})
	return n, err
}

// scanPartials folds every live fact row of one snapshot into a fresh
// partial — restricted to the scope's groups when scope is non-nil.
// Runs lock-free against the immutable snapshot.
func (e *Engine) scanPartials(info realm.Info, td *warehouse.TableData, l *rowLayout, scope Scope) (partial, int, error) {
	f := newFolder(l)
	f.scope = scope
	n, err := e.foldFacts(info, td, nil, f)
	if err != nil {
		return nil, 0, err
	}
	return f.p, n, nil
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

// Reaggregate rebuilds the realm's aggregation tables from the given
// fact source schemas. This is the paper's config-change path: "update
// the appropriate configuration file on the federation hub, then
// re-aggregate all raw federation data" (§II-C3) — raw data is
// untouched, so nothing is lost. It is also the fallback whenever
// neither the incremental fold nor a scoped recompute can keep the
// aggregates current (truncates, loose reloads, restarts).
func (e *Engine) Reaggregate(info realm.Info, sourceSchemas []string) (int, error) {
	return e.ReaggregateFrom(info, factSources(sourceSchemas), nil)
}

// forEachParallel calls fn(0) .. fn(n-1) on min(GOMAXPROCS, n) workers
// and returns when all are done. Workers pull the next index from a
// shared counter, so one oversized task never serializes the tail the
// way a fixed split would — the remaining workers drain the other tasks
// meanwhile.
func forEachParallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ReaggregateFrom is Reaggregate over mixed fact/pushdown sources,
// optionally limited to a scope of groups.
//
// It scans the sources in parallel, merges the per-source partials in
// source order (so floating-point accumulation associates exactly like
// the sequential reference), and installs the result in one write
// transaction; chart queries, which read lock-free, proceed meanwhile.
// A nil scope rebuilds the realm and installs every table whole
// (ReplaceAllColumns). A scope refolds only its groups — each source
// still scanned in position order and merged in source order, so every
// recomputed group is bit-identical to what a rebuild would write for
// it — and installs them with one batch upsert per period, deleting the
// scoped groups that came out empty.
// A pushdown source cannot be restricted to groups, so a realm with one
// ignores the scope and rebuilds. Returns the facts folded.
func (e *Engine) ReaggregateFrom(info realm.Info, sources []Source, scope Scope) (int, error) {
	targets, err := e.targets(info)
	if err != nil {
		return 0, err
	}
	for _, s := range sources {
		if s.Pushdown {
			scope = nil
		}
	}
	kind := "realm"
	if scope != nil {
		if scope.Len() == 0 {
			return 0, nil
		}
		kind = "groups"
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
	// Capture the published snapshot of every source table inside one
	// brief read transaction: the read lock excludes writers for a few
	// pointer loads, so the snapshot set is a consistent cut across
	// schemas even when one write transaction spans several of them.
	// The scans themselves then run with no lock held at all — chart
	// queries and replication writes proceed concurrently.
	facts := make([]*warehouse.TableData, len(sources))
	paggData := make([][]*warehouse.TableData, len(sources))
	e.db.View(func() error {
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
	defer mRealmAggSeconds.With(info.Name, kind).ObserveSince(time.Now())
	codec := e.codecOf(info)

	// Scan phase, one task per source. A pushdown source does no fact
	// scan at all: its partial loads straight from the member's
	// replicated bins.
	partials := make([]partial, len(sources))
	counts := make([]int, len(sources))
	errs := make([]error, len(sources))
	forEachParallel(len(sources), func(i int) {
		if sources[i].Pushdown {
			partials[i], counts[i], errs[i] = paggPartials(codec, paggData[i])
		} else {
			partials[i], counts[i], errs[i] = e.scanPartials(info, facts[i], codec.l, scope)
		}
	})
	total := 0
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		total += counts[i]
	}

	// Merge + install: the per-source partials merge in source order and
	// install — as one bulk columnar load per aggregation table, or one
	// scoped upsert-and-delete per table — all periods in one
	// transaction, so no reader ever sees a half-built realm.
	merged := make(partial, len(Periods()))
	for _, p := range partials {
		merged.merge(codec.l, p)
	}
	err = e.db.Do(func() error {
		for pi, tg := range targets {
			var err error
			if scope == nil {
				err = tg.tab.ReplaceAllColumns(codec.columns(merged[tg.period]))
			} else {
				err = installScoped(tg.tab, codec, merged[tg.period], scope[pi])
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
	mFactsApplied.Add(uint64(total))
	return total, nil
}
