package aggregate

import (
	"fmt"

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
}

// New creates an engine over db with the given aggregation levels.
// Numeric dimensions without configured levels fall back to a single
// catch-all bucket.
func New(db *warehouse.DB, levels []config.AggregationLevels) (*Engine, error) {
	e := &Engine{db: db, levels: make(map[string]config.AggregationLevels, len(levels))}
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

// measureColumns returns the distinct numeric fact columns referenced
// by the realm's metrics (for sums/mins/maxes) and the weighted pairs
// ("col*weight") needed by weighted-average metrics.
func measureColumns(info realm.Info) (cols, weights []string) {
	seen := map[string]bool{}
	wseen := map[string]bool{}
	for _, m := range info.Metrics {
		if m.Column != "" && !seen[m.Column] {
			seen[m.Column] = true
			cols = append(cols, m.Column)
		}
		if m.WeightColumn != "" {
			if !seen[m.WeightColumn] {
				seen[m.WeightColumn] = true
				cols = append(cols, m.WeightColumn)
			}
			key := m.Column + "*" + m.WeightColumn
			if !wseen[key] {
				wseen[key] = true
				weights = append(weights, key)
			}
		}
	}
	return cols, weights
}

func wsumColName(pair string) string {
	out := make([]byte, 0, len(pair)+8)
	out = append(out, "wsum_"...)
	for i := 0; i < len(pair); i++ {
		if pair[i] == '*' {
			out = append(out, "_x_"...)
		} else {
			out = append(out, pair[i])
		}
	}
	return string(out)
}

// aggDef builds the aggregation table definition for a realm + period.
// The table is derived: every instance recomputes it from the raw realm
// tables under its own levels (paper §II-C3) — Setup recreates it on
// each start and a rebuild refills it — so it is never logged.
func aggDef(info realm.Info, p Period) warehouse.TableDef {
	cols, weights := measureColumns(info)
	def := warehouse.TableDef{Name: AggTableName(info.FactTable, p), Derived: true,
		Columns: make([]warehouse.Column, 0, 3+len(info.Dimensions)+4*len(cols)+len(weights))}
	def.Columns = append(def.Columns, warehouse.Column{Name: "period_key", Type: warehouse.TypeInt})
	pk := []string{"period_key"}
	for _, d := range info.Dimensions {
		col := "dim_" + d.ID
		def.Columns = append(def.Columns, warehouse.Column{Name: col, Type: warehouse.TypeString})
		pk = append(pk, col)
	}
	def.Columns = append(def.Columns, warehouse.Column{Name: "n", Type: warehouse.TypeInt})
	def.Columns = append(def.Columns, warehouse.Column{Name: "last_ts", Type: warehouse.TypeFloat})
	for _, c := range cols {
		def.Columns = append(def.Columns,
			warehouse.Column{Name: "sum_" + c, Type: warehouse.TypeFloat},
			warehouse.Column{Name: "min_" + c, Type: warehouse.TypeFloat},
			warehouse.Column{Name: "max_" + c, Type: warehouse.TypeFloat},
			warehouse.Column{Name: "last_" + c, Type: warehouse.TypeFloat},
		)
	}
	for _, w := range weights {
		def.Columns = append(def.Columns, warehouse.Column{Name: wsumColName(w), Type: warehouse.TypeFloat})
	}
	def.PrimaryKey = pk
	return def
}

// Setup creates the aggregation tables for every period of a realm.
func (e *Engine) Setup(info realm.Info) error {
	if err := info.Validate(); err != nil {
		return err
	}
	s := e.db.EnsureSchema(AggSchema(info))
	for _, p := range Periods() {
		if _, err := s.EnsureTable(aggDef(info, p)); err != nil {
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
