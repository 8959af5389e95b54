package aggregate

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// AggSchemaSuffix names the schema holding an instance's aggregation
// tables: "<realm schema>_agg" (kept separate from raw data because the
// hub replicates raw schemas verbatim and derives its own aggregates).
const AggSchemaSuffix = "_agg"

// Engine aggregates realm fact tables into per-period aggregation
// tables inside one warehouse, applying this instance's (or hub's)
// aggregation-level configuration to numeric dimensions.
type Engine struct {
	db     *warehouse.DB
	levels map[string]config.AggregationLevels // dimension id -> levels
	locks  map[string]*sync.Mutex              // realm name -> its mutex (Lock); filled by Setup

	// Sources returns a realm's rebuild sources, the ones a write that
	// replaced facts recomputes its groups over (Refresh). Nil means the
	// realm's own schema, a satellite's only source; a hub sets it to
	// its federation's sources before it serves.
	Sources func(info realm.Info) []Source
}

// New creates an engine over db with the given aggregation levels.
// Numeric dimensions without configured levels fall back to a single
// catch-all bucket.
func New(db *warehouse.DB, levels []config.AggregationLevels) (*Engine, error) {
	e := &Engine{db: db, levels: make(map[string]config.AggregationLevels, len(levels)), locks: map[string]*sync.Mutex{}}
	for _, l := range levels {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		if _, dup := e.levels[l.Dimension]; dup {
			return nil, fmt.Errorf("aggregate: dimension %q configured twice", l.Dimension)
		}
		e.levels[l.Dimension] = l
	}
	return e, nil
}

// AggTableName names the aggregation table for a fact table + period.
func AggTableName(fact string, p Period) string {
	return fmt.Sprintf("%s_by_%s", fact, p)
}

// AggSchema names the aggregate schema for a realm.
func AggSchema(info realm.Info) string { return info.Schema + AggSchemaSuffix }

// stateKind is how a stored state column folds facts and merges rows.
type stateKind uint8

const (
	stateSum  stateKind = iota // adds the column
	stateMax                   // keeps the column's largest value
	stateLast                  // keeps the column's value at the newest timestamp
	stateWSum                  // adds a weighted pair's products
	nStateKinds
)

// stateCol is one stored state column: its kind and what it folds — a
// fact column, or a "col*weight" pair for stateWSum.
type stateCol struct {
	kind stateKind
	of   string
}

// name is the aggregation-table column holding the state:
// sum_<c>, max_<c>, last_<c> or wsum_<c>_x_<w>.
func (s stateCol) name() string {
	return [...]string{"sum_", "max_", "last_", "wsum_"}[s.kind] + strings.ReplaceAll(s.of, "*", "_x_")
}

// metricState names the stored state a metric's chart reads besides n:
// val, which a chart cell folds over its aggregation rows (by max for
// MAX, by addition otherwise), and den, the denominator of a weighted
// average. A state with an empty of is none: COUNT reads only n, and
// only a weighted average has a den. This is the one derivation of what
// a chart reads; stateLayout stores exactly its union over the realm's
// metrics.
func metricState(m realm.Metric) (val, den stateCol) {
	switch m.Func {
	case warehouse.AggSum:
		return stateCol{stateSum, m.Column}, stateCol{}
	case warehouse.AggAvg:
		if m.WeightColumn != "" {
			return stateCol{stateWSum, m.Column + "*" + m.WeightColumn}, stateCol{stateSum, m.WeightColumn}
		}
		return stateCol{stateSum, m.Column}, stateCol{}
	case warehouse.AggMax:
		return stateCol{stateMax, m.Column}, stateCol{}
	case warehouse.AggSumLast:
		return stateCol{stateLast, m.Column}, stateCol{}
	}
	return stateCol{}, stateCol{}
}

// rowLayout is the running state an aggregation row stores beside its
// key and n, as stateLayout derives it. The state columns are grouped
// by kind, state[at[k]:at[k+1]] holding kind k, so each kind folds in
// one loop over its slots. The fold reads a fact as vals, one per
// column of cols, and wvals, one product per pair of weights.
type rowLayout struct {
	state   []stateCol
	at      [nStateKinds + 1]int
	lastTS  bool     // last_ts is stored: some state is a last
	cols    []string // fact columns a fact's vals hold
	weights []string // weighted pairs, wvals[i] folding into state[at[stateWSum]+i]
	src     []int    // per state slot below at[stateWSum]: the vals index it folds
}

// stateLayout derives a realm's stored state from its metrics, as the
// union of their metricState: sum_<c> for SUM and unweighted AVG on c
// and for c as a weight denominator, max_<c> for MAX, last_<c> for
// SUM_LAST (with last_ts, the timestamp the lasts follow), and
// wsum_<c>_x_<w> per weighted pair. State no metric reads is neither
// stored nor folded.
func stateLayout(info realm.Info) *rowLayout {
	l := &rowLayout{}
	for _, m := range info.Metrics {
		val, den := metricState(m)
		for _, s := range [...]stateCol{val, den} {
			if s.of != "" && !slices.Contains(l.state, s) {
				l.state = append(l.state, s)
			}
		}
	}
	slices.SortStableFunc(l.state, func(a, b stateCol) int { return int(a.kind) - int(b.kind) })
	for _, s := range l.state {
		for k := s.kind + 1; k <= nStateKinds; k++ {
			l.at[k]++
		}
		if s.kind == stateWSum {
			l.weights = append(l.weights, s.of)
			continue
		}
		ci := slices.Index(l.cols, s.of)
		if ci < 0 {
			ci = len(l.cols)
			l.cols = append(l.cols, s.of)
		}
		l.src = append(l.src, ci)
	}
	l.lastTS = l.at[stateLast] < l.at[stateWSum]
	return l
}

// aggDef builds the aggregation table definition for a realm + period
// from the realm's layout: the key columns (period_key and one per
// dimension), n, last_ts when stored, then the state columns in layout
// order. The table is derived: every instance recomputes it from the
// raw realm tables under its own levels (paper §II-C3) — Setup
// recreates it on each start and a rebuild refills it — so it is never
// logged.
func aggDef(info realm.Info, l *rowLayout, p Period) warehouse.TableDef {
	def := warehouse.TableDef{Name: AggTableName(info.FactTable, p), Derived: true,
		Columns: make([]warehouse.Column, 0, 3+len(info.Dimensions)+len(l.state))}
	def.Columns = append(def.Columns, warehouse.Column{Name: "period_key", Type: warehouse.TypeInt})
	pk := []string{"period_key"}
	for _, d := range info.Dimensions {
		col := "dim_" + d.ID
		def.Columns = append(def.Columns, warehouse.Column{Name: col, Type: warehouse.TypeString})
		pk = append(pk, col)
	}
	def.Columns = append(def.Columns, warehouse.Column{Name: "n", Type: warehouse.TypeInt})
	if l.lastTS {
		def.Columns = append(def.Columns, warehouse.Column{Name: "last_ts", Type: warehouse.TypeFloat})
	}
	for _, s := range l.state {
		def.Columns = append(def.Columns, warehouse.Column{Name: s.name(), Type: warehouse.TypeFloat})
	}
	def.PrimaryKey = pk
	return def
}

// Setup creates the aggregation tables for every period of a realm.
func (e *Engine) Setup(info realm.Info) error {
	if err := info.Validate(); err != nil {
		return err
	}
	if e.locks[info.Name] == nil {
		e.locks[info.Name] = new(sync.Mutex)
	}
	s, l := e.db.EnsureSchema(AggSchema(info)), stateLayout(info)
	for _, p := range Periods() {
		if _, err := s.EnsureTable(aggDef(info, l, p)); err != nil {
			return err
		}
	}
	return nil
}

// target is one resolved aggregation table.
type target struct {
	period Period
	tab    *warehouse.Table
}

// targets resolves a realm's aggregation tables, indexed like
// Periods().
func (e *Engine) targets(info realm.Info) ([]target, error) {
	out := make([]target, 0, len(Periods()))
	for _, p := range Periods() {
		tab, err := e.db.TableIn(AggSchema(info), AggTableName(info.FactTable, p))
		if err != nil {
			return nil, fmt.Errorf("aggregate: realm %s not set up for period %s: %w", info.Name, p, err)
		}
		out = append(out, target{p, tab})
	}
	return out, nil
}

// Lock takes the mutexes of the named realms in name order (it sorts
// realms in place) and returns the function that releases them. A
// realm's mutex orders everything that changes its facts or its
// aggregation tables, on a satellite and on a hub alike: a write holds
// it from its fact transaction through the Refresh that covers it, a
// rebuild from its scan through its install. So a reader that takes it
// never finds the aggregates behind facts it could have seen before
// taking it. Realm mutexes come before every other lock their holder
// takes.
func (e *Engine) Lock(realms ...string) (unlock func()) {
	slices.Sort(realms)
	for _, name := range realms {
		e.locks[name].Lock()
	}
	return func() {
		for _, name := range realms {
			e.locks[name].Unlock()
		}
	}
}

// sources returns a realm's rebuild sources: Sources, or the realm's
// own schema when that is unset.
func (e *Engine) sources(info realm.Info) []Source {
	if e.Sources != nil {
		return e.Sources(info)
	}
	return []Source{{Schema: info.Schema}}
}

// Rebuild recomputes every group of a realm's aggregation tables over
// its rebuild sources (Sources), returning the facts it read. The
// caller holds the realm's mutex (Lock).
func (e *Engine) Rebuild(info realm.Info) (int, error) {
	return e.ReaggregateFrom(info, e.sources(info), nil)
}

// Refresh brings a realm's aggregation tables up to one committed write
// to sourceSchema's fact table, c being that table's entry in the
// write's warehouse.Record; it is the one place that chooses how. A
// write that replaced nothing is additive, and its rows fold in
// (ApplyFactRows). Otherwise exactly the groups its replaced and
// written rows fall in are recomputed over the realm's rebuild sources
// (scopeOf, then ReaggregateFrom), so every group it touches ends as a
// rebuild would write it. A whole-table change (truncate or LOAD) is
// refused: its caller marks the realm for a rebuild instead. The caller
// holds the realm's mutex (Lock) from the write through Refresh.
func (e *Engine) Refresh(info realm.Info, sourceSchema string, c warehouse.Change) error {
	switch {
	case c.Whole:
		return fmt.Errorf("aggregate: realm %s: a whole-table change to %s's facts has no refresh; rebuild the realm", info.Name, sourceSchema)
	case len(c.Replaced) == 0:
		_, err := e.ApplyFactRows(info, sourceSchema, c.Inserted)
		return err
	}
	scope, err := e.scopeOf(info, sourceSchema, slices.Concat(c.Replaced, c.Inserted))
	if err != nil {
		return err
	}
	_, err = e.ReaggregateFrom(info, e.sources(info), scope)
	return err
}
