package aggregate

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
// aggregation-level configuration to numeric dimensions. It owns every
// realm's aggregate state: how a committed write reaches the aggregates
// (Write) and when a realm must be rebuilt (its stale flag), with one
// rule for a satellite and a hub.
type Engine struct {
	db     *warehouse.DB
	levels map[string]config.AggregationLevels // dimension id -> levels
	realms map[string]*realmState              // realm name -> its state; filled by Setup
	names  []string                            // the keys of realms, sorted

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
	e := &Engine{db: db, levels: make(map[string]config.AggregationLevels, len(levels)), realms: map[string]*realmState{}}
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

// Setup creates the aggregation tables for every period of a realm
// and registers the realm's aggregate state (realmState).
func (e *Engine) Setup(info realm.Info) error {
	if err := info.Validate(); err != nil {
		return err
	}
	if e.realms[info.Name] == nil {
		e.realms[info.Name] = &realmState{info: info, codec: newAggCodec(info)}
		e.names = append(e.names, info.Name)
		slices.Sort(e.names)
	}
	s, l := e.db.EnsureSchema(AggSchema(info)), e.realms[info.Name].codec.l
	for _, p := range Periods() {
		if _, err := s.EnsureTable(aggDef(info, l, p)); err != nil {
			return err
		}
	}
	return nil
}

// Realm returns the realm Setup set up under name. A nil engine has
// set up none.
func (e *Engine) Realm(name string) (realm.Info, bool) {
	if e != nil && e.realms[name] != nil {
		return e.realms[name].info, true
	}
	return realm.Info{}, false
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

// realmState is the engine's state of one realm's aggregates. Whoever
// changes the realm's facts or aggregation tables holds mu for the
// whole change: a write from its fact transaction through the Refresh
// that covers it (Write), a rebuild from its scan through its install,
// a pushdown delta apply. So a reader that takes mu never finds the
// aggregates behind facts it could have seen before taking it.
//
// stale means the whole realm must be rebuilt: a write changed a fact
// table whole (truncate or LOAD), which no group scope expresses, a
// Refresh failed part-way, or a pushdown delta changed the realm's
// bins. A rebuild clears it. It is written only with mu held and read
// lock-free (Stale).
//
// Lock order: realm mutexes first, in name order; warehouse locks
// last. (A hub's Sources reads its members with a realm mutex held, so
// nothing may take a realm mutex while holding the hub's own lock.)
type realmState struct {
	info  realm.Info
	codec *aggCodec // the layout of the tables Setup made
	mu    sync.Mutex
	stale atomic.Bool
}

// Lock takes the mutexes of the named realms in name order (it sorts
// realms in place) and returns the function that releases them.
func (e *Engine) Lock(realms ...string) (unlock func()) {
	slices.Sort(realms)
	for _, name := range realms {
		e.realms[name].mu.Lock()
	}
	return func() {
		for _, name := range realms {
			e.realms[name].mu.Unlock()
		}
	}
}

// Write is the one way a committed write reaches the aggregates, on a
// satellite and a hub alike. Holding the named realms' mutexes (Lock),
// it runs fn as one write transaction (warehouse.DB.Write) and then
// brings each of those realms up to every entry of the transaction's
// record whose table is the realm's fact table, in any schema: additive
// entries first, since a recompute reads the whole committed batch and
// a fold after it would count twice the rows another schema's table of
// the realm added. A stale realm is skipped, since its rebuild covers
// the rows; a Refresh that fails marks the realm stale and is logged,
// not returned. It refreshes also when fn failed: what fn wrote before
// failing stays written. Returns the record and fn's error.
func (e *Engine) Write(realms []string, fn func() error) (warehouse.Record, error) {
	defer e.Lock(realms...)()
	rec, err := e.db.Write(fn)
	for _, additive := range [...]bool{true, false} {
		for _, tc := range rec {
			if (len(tc.Replaced) == 0) != additive {
				continue
			}
			for _, name := range realms {
				st := e.realms[name]
				if st.info.FactTable != tc.Table || st.stale.Load() {
					continue
				}
				if rerr := e.Refresh(st.info, tc.Change); rerr != nil {
					st.stale.Store(true)
					aggLog.Error("aggregation refresh failed; realm marked stale for rebuild",
						"realm", name, "schema", tc.Schema, "err", rerr)
				}
			}
		}
	}
	return rec, err
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
// its rebuild sources (Sources), returning the facts it read, and
// leaves the realm stale exactly when it fails. The caller holds the
// realm's mutex (Lock).
func (e *Engine) Rebuild(info realm.Info) (int, error) {
	n, err := e.ReaggregateFrom(info, e.sources(info), nil)
	e.realms[info.Name].stale.Store(err != nil)
	return n, err
}

// EnsureCurrent rebuilds every stale realm before a read, in name
// order. It takes each realm's mutex in turn, stale or not, so a reader
// that has seen a write's facts gets there only after the write's
// Refresh, and is guaranteed aggregates covering every fact it saw. A
// realm kept current by Write costs one uncontended lock, and a queue
// of callers collapses into the first one's rebuild: the rest find the
// realm current.
func (e *Engine) EnsureCurrent() error {
	_, err := e.rebuild(true)
	return err
}

// RebuildAll rebuilds every realm, in name order, each under its
// mutex. It returns the facts read per realm.
func (e *Engine) RebuildAll() (map[string]int, error) { return e.rebuild(false) }

// rebuild is the one loop over the realms that EnsureCurrent (only
// stale ones, when staleOnly) and RebuildAll run.
func (e *Engine) rebuild(staleOnly bool) (map[string]int, error) {
	counts := map[string]int{}
	for _, name := range e.names {
		st := e.realms[name]
		st.mu.Lock()
		var err error
		if !staleOnly || st.stale.Load() {
			counts[name], err = e.Rebuild(st.info)
		}
		st.mu.Unlock()
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
}

// Stale returns the realms that must be rebuilt, sorted by name,
// without waiting for any realm's mutex.
func (e *Engine) Stale() []string {
	var out []string
	for _, name := range e.names {
		if e.realms[name].stale.Load() {
			out = append(out, name)
		}
	}
	return out
}

// Refresh brings a realm's aggregation tables up to one committed write
// to a schema's fact table, c being that table's entry in the write's
// warehouse.Record; it is the one place that chooses how. It reads the
// rows the write named straight from c's view of the table's vectors.
// A write that replaced nothing is additive, and its rows fold in
// (fold). Otherwise exactly the groups its replaced and written rows
// fall in are recomputed over the realm's rebuild sources (scopeOf,
// then ReaggregateFrom), so every group it touches ends as a rebuild
// would write it. A whole-table change (truncate or LOAD) marks the
// realm stale instead. The caller holds the realm's mutex (Lock) from
// the write through Refresh.
func (e *Engine) Refresh(info realm.Info, c warehouse.Change) error {
	switch {
	case c.Whole:
		e.realms[info.Name].stale.Store(true)
		return nil
	case len(c.Replaced) == 0:
		if len(c.Inserted) == 0 {
			return nil
		}
		_, err := e.fold(info, c.Data, c.Inserted)
		return err
	}
	scope, err := e.scopeOf(info, c.Data, slices.Concat(c.Replaced, c.Inserted))
	if err != nil {
		return err
	}
	_, err = e.ReaggregateFrom(info, e.sources(info), scope)
	return err
}
