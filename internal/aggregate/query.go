package aggregate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// ErrBadRequest classifies query failures caused by the request itself
// — an unknown realm, metric or dimension — as opposed to internal
// engine failures. The REST layer maps request errors to HTTP 400 and
// everything else to 500.
var ErrBadRequest = errors.New("aggregate: bad request")

// badRequest tags an error as errors.Is-matching ErrBadRequest without
// altering its message.
type badRequest struct{ error }

func (b badRequest) Is(target error) bool { return target == ErrBadRequest }
func (b badRequest) Unwrap() error        { return b.error }

// BadRequestf formats an error that errors.Is-matches ErrBadRequest.
func BadRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// Request describes one chart-style query against the aggregation
// tables: a metric, an optional group-by dimension, a period
// granularity, an optional period-key range and optional dimension
// filters (the XDMoD UI's filter/group/drill-down operations).
type Request struct {
	MetricID string
	GroupBy  string            // dimension id; empty = single total group
	Period   Period            //
	StartKey int64             // inclusive; 0 = unbounded
	EndKey   int64             // inclusive; 0 = unbounded
	Filters  map[string]string // dimension id -> required dim value/bucket label
}

// CanonicalKey renders the request as a deterministic string: filters
// are emitted in sorted order, so two requests with equal contents
// always produce identical keys. Every caller-controlled component is
// length-prefixed, so a value containing the separator characters
// ('|', '=', '.') cannot collide with a structurally different request
// — e.g. one filter value "x|f.b=y" versus two filters "x" and "y".
// The query-result cache (internal/qcache) keys on this.
func (r Request) CanonicalKey() string {
	var b strings.Builder
	b.Grow(64)
	fmt.Fprintf(&b, "m=%d:%s|g=%d:%s|p=%s|s=%d|e=%d",
		len(r.MetricID), r.MetricID, len(r.GroupBy), r.GroupBy, r.Period, r.StartKey, r.EndKey)
	if len(r.Filters) > 0 {
		keys := make([]string, 0, len(r.Filters))
		for k := range r.Filters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := r.Filters[k]
			fmt.Fprintf(&b, "|f.%d:%s=%d:%s", len(k), k, len(v), v)
		}
	}
	return b.String()
}

// Point is one timeseries point of a query result.
type Point struct {
	PeriodKey int64
	Value     float64
}

// Series is the result for one group: its timeseries (sorted by
// period) plus the aggregate value over the whole range (the "timeseries
// vs aggregate view" duality of the XDMoD UI, paper §I-D).
type Series struct {
	Group     string
	Points    []Point
	Aggregate float64
	N         int64 // fact rows contributing
}

// cell accumulates aggregation-table rows for (group, period): n, the
// metric's val state folded by max or by addition, and the weighted
// average's den (see metricState).
type cell struct {
	n    int64
	v    float64
	den  float64
	init bool
}

// add folds one aggregation-table row's pre-extracted values into the
// cell; byMax folds v by max instead of addition.
func (c *cell) add(n int64, v, den float64, byMax bool) {
	c.n += n
	if !byMax {
		c.v += v
	} else if !c.init || v > c.v {
		c.v = v
	}
	c.den += den
	c.init = true
}

func (c *cell) value(m realm.Metric) float64 {
	scale := m.ScaleOr1()
	switch {
	case m.WeightColumn != "" && m.Func == warehouse.AggAvg:
		if c.den == 0 {
			return 0
		}
		return c.v / c.den * scale
	case m.Func == warehouse.AggSum, m.Func == warehouse.AggSumLast, m.Func == warehouse.AggMax:
		return c.v * scale
	case m.Func == warehouse.AggCount:
		return float64(c.n) * scale
	case m.Func == warehouse.AggAvg:
		if c.n == 0 {
			return 0
		}
		return c.v / float64(c.n) * scale
	default:
		return 0
	}
}

// QueryInfo carries per-query execution statistics alongside the
// result, for the REST layer's explain output and slow-query log.
type QueryInfo struct {
	// RowsScanned counts live aggregate rows the scan visited (after
	// tombstone skipping, before period/filter predicates).
	RowsScanned int
}

// Query runs a request against the realm's aggregation tables. The
// scan iterates the table's published columnar snapshot and takes no
// lock at all: a rebuild or replication batch committing concurrently
// swaps in a new snapshot without ever blocking (or being blocked by)
// chart queries.
func (e *Engine) Query(info realm.Info, req Request) ([]Series, error) {
	out, _, err := e.QueryStats(info, req)
	return out, err
}

// QueryStats is Query plus execution statistics.
func (e *Engine) QueryStats(info realm.Info, req Request) ([]Series, QueryInfo, error) {
	return e.QueryStatsCtx(context.Background(), info, req)
}

// QueryStatsCtx is QueryStats bounded by a context: the scan checks ctx
// before it starts and returns ctx.Err() once it is canceled, so a
// chart client that disconnected while queued costs no scan (and
// releases its admission slot).
func (e *Engine) QueryStatsCtx(ctx context.Context, info realm.Info, req Request) ([]Series, QueryInfo, error) {
	defer mQuerySeconds.With(info.Name).ObserveSince(time.Now())
	metric, ok := info.Metric(req.MetricID)
	if !ok {
		return nil, QueryInfo{}, BadRequestf("aggregate: realm %s has no metric %q", info.Name, req.MetricID)
	}
	group := -1 // the dimension a request groups by, by index
	if req.GroupBy != "" {
		var ok bool
		if group, ok = info.DimensionIndex(req.GroupBy); !ok {
			return nil, QueryInfo{}, BadRequestf("aggregate: realm %s has no dimension %q", info.Name, req.GroupBy)
		}
	}
	filters := make(map[int]string, len(req.Filters)) // dimension index -> required value
	for f, want := range req.Filters {
		d, ok := info.DimensionIndex(f)
		if !ok {
			return nil, QueryInfo{}, BadRequestf("aggregate: realm %s has no dimension %q (filter)", info.Name, f)
		}
		filters[d] = want
	}
	if req.Period == 0 {
		req.Period = Month
	}

	// Rows fold in table-scan order: a chart cell usually combines many
	// aggregation rows and floating-point addition is not associative,
	// so the scan order is part of the answer.
	cells := map[gp]*cell{}
	aggCells := map[string]*cell{}
	val, den := metricState(metric)
	byMax := val.kind == stateMax
	td, err := e.db.DataFor(AggSchema(info), AggTableName(info.FactTable, req.Period))
	if err != nil {
		return nil, QueryInfo{}, err
	}
	scanned, err := scanAggRows(ctx, e.codecOf(info), td, req, val, den, group, filters,
		func(pk int64, group string, n int64, v, d float64) {
			foldCell(cells, aggCells, gp{group, pk}, n, v, d, byMax)
		})
	mRowsScanned.Add(uint64(scanned))
	if err != nil {
		return nil, QueryInfo{RowsScanned: scanned}, err
	}
	return buildSeries(metric, cells, aggCells), QueryInfo{RowsScanned: scanned}, nil
}

// gp keys one timeseries accumulator cell: (group value, period key).
type gp struct {
	group string
	pk    int64
}

// foldCell folds one aggregation row's values into both the
// per-(group, period) cell and the group's whole-range aggregate cell.
func foldCell(cells map[gp]*cell, aggCells map[string]*cell, k gp, n int64, v, den float64, byMax bool) {
	c := cells[k]
	if c == nil {
		c = &cell{}
		cells[k] = c
	}
	c.add(n, v, den, byMax)
	a := aggCells[k.group]
	if a == nil {
		a = &cell{}
		aggCells[k.group] = a
	}
	a.add(n, v, den, byMax)
}

// scanAggRows iterates one aggregation-table snapshot through the
// codec's reader, applying the request's period range and the filters
// (dimension index -> required value), and calls emit for every passing
// live row with its group's value (of dimension group; "" for -1), n
// and the metric's val and den state (metricState; none reads zero).
// Each filter value is resolved once to its code in the snapshot's
// dictionary: the per-row loop compares codes and reads typed vectors
// only. A snapshot whose dictionary lacks a filter value holds no row
// that passes. Returns the live rows visited.
//
// ctx is checked once, before the scan: a query canceled before it
// starts returns ctx.Err() having visited no row.
func scanAggRows(ctx context.Context, c *aggCodec, td *warehouse.TableData, req Request, val, den stateCol,
	group int, filters map[int]string, emit func(pk int64, group string, n int64, v, d float64)) (int, error) {

	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if td.Rows() == 0 {
		return 0, nil
	}
	r, err := c.reader(td)
	if err != nil {
		return 0, err
	}
	at := func(v []float64, pos int) float64 {
		if v == nil {
			return 0
		}
		return v[pos]
	}
	type dimFilter struct {
		codes []uint32
		want  uint32
	}
	fs := make([]dimFilter, 0, len(filters))
	matchable := true
	for d, want := range filters {
		code, ok := r.dims[d].Code(want)
		matchable = matchable && ok
		fs = append(fs, dimFilter{codes: r.dims[d].Codes, want: code})
	}
	valV, err := r.stateVec(val)
	if err != nil {
		return 0, err
	}
	denV, err := r.stateVec(den)
	if err != nil {
		return 0, err
	}
	scanned := 0
	dead := td.Tombstones()
rows:
	for pos := 0; pos < td.Rows(); pos++ {
		if dead[pos] {
			continue
		}
		scanned++
		pk := r.pks[pos]
		if (req.StartKey != 0 && pk < req.StartKey) || (req.EndKey != 0 && pk > req.EndKey) || !matchable {
			continue
		}
		for _, f := range fs {
			if f.codes[pos] != f.want {
				continue rows
			}
		}
		g := ""
		if group >= 0 {
			g = r.dims[group].At(pos)
		}
		emit(pk, g, r.ns[pos], at(valV, pos), at(denV, pos))
	}
	return scanned, nil
}

// buildSeries renders the accumulated cells as sorted Series.
func buildSeries(metric realm.Metric, cells map[gp]*cell, aggCells map[string]*cell) []Series {
	byGroup := map[string][]Point{}
	for k, c := range cells {
		byGroup[k.group] = append(byGroup[k.group], Point{PeriodKey: k.pk, Value: c.value(metric)})
	}
	groups := make([]string, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	out := make([]Series, 0, len(groups))
	for _, g := range groups {
		pts := byGroup[g]
		sort.Slice(pts, func(i, j int) bool { return pts[i].PeriodKey < pts[j].PeriodKey })
		out = append(out, Series{
			Group:     g,
			Points:    pts,
			Aggregate: aggCells[g].value(metric),
			N:         aggCells[g].n,
		})
	}
	return out
}

// TopN returns the n groups with the largest aggregate value, largest
// first — the ranking behind "the top three XSEDE resources in 2017,
// by total SUs charged" (paper Fig. 1).
func TopN(series []Series, n int) []Series {
	sorted := append([]Series(nil), series...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Aggregate > sorted[j].Aggregate })
	if n > 0 && n < len(sorted) {
		sorted = sorted[:n]
	}
	return sorted
}

// DrillDown re-runs a grouped query narrowed to one value of the
// original grouping — the XDMoD drill-down interaction: start from a
// by-resource chart, click one resource, regroup the remaining data by
// another dimension.
func (e *Engine) DrillDown(info realm.Info, req Request, intoDimension, atValue string) ([]Series, error) {
	nreq := req
	nreq.Filters = map[string]string{}
	for k, v := range req.Filters {
		nreq.Filters[k] = v
	}
	if req.GroupBy != "" {
		nreq.Filters[req.GroupBy] = atValue
	}
	nreq.GroupBy = intoDimension
	return e.Query(info, nreq)
}

// FormatSeriesTable renders series as a fixed-width text table, one
// row per period, one column per group: the form the experiment
// harnesses print for EXPERIMENTS.md.
func FormatSeriesTable(p Period, series []Series) string {
	keySet := map[int64]bool{}
	for _, s := range series {
		for _, pt := range s.Points {
			keySet[pt.PeriodKey] = true
		}
	}
	keys := make([]int64, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", p.String())
	for _, s := range series {
		name := s.Group
		if name == "" {
			name = "total"
		}
		fmt.Fprintf(&b, " %16s", name)
	}
	b.WriteByte('\n')
	lookup := make([]map[int64]float64, len(series))
	for i, s := range series {
		lookup[i] = make(map[int64]float64, len(s.Points))
		for _, pt := range s.Points {
			lookup[i][pt.PeriodKey] = pt.Value
		}
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "%-12s", p.Label(k))
		for i := range series {
			if v, ok := lookup[i][k]; ok {
				fmt.Fprintf(&b, " %16.2f", v)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s", "TOTAL")
	for _, s := range series {
		fmt.Fprintf(&b, " %16.2f", s.Aggregate)
	}
	b.WriteByte('\n')
	return b.String()
}
