package aggregate

import (
	"fmt"
	"slices"
	"sort"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/warehouse/store"
)

// aggCodec is the one translation between an accRow and a row of an
// aggregation (or pagg) table. The row layout (stateLayout) owns which
// state a row stores and aggDef the column names and their order;
// the codec maps each position to an accRow field:
//
//	0            period_key
//	1 .. nd      one per dimension
//	1+nd         n
//	2+nd         last_ts, only when the layout stores a last
//	then         the layout's state columns, each to its slot of
//	             accRow.state: sums, maxes, lasts, weighted sums
//
// Every writer (the incremental fold's and the incremental delta's
// batch upserts, rebuild and reset bulk loads) goes through newColumns
// and every reader (the incremental merge's existing row, the rebuild's
// pagg load, chart queries) through reader, both over typed column
// vectors, so a stored group reads back as exactly the accumulator that
// was written. Built once per realm, by Setup (codecOf).
type aggCodec struct {
	l     *rowLayout
	nd    int      // dimensions
	names []string // aggDef column names, in layout order
}

// codecOf returns a realm's codec: the one Setup built, or a new one for
// a realm this engine did not set up (an engine over a warehouse whose
// tables another engine made).
func (e *Engine) codecOf(info realm.Info) *aggCodec {
	if st := e.realms[info.Name]; st != nil {
		return st.codec
	}
	return newAggCodec(info)
}

func newAggCodec(info realm.Info) *aggCodec {
	l := stateLayout(info)
	def := aggDef(info, l, Day) // the layout is the same for every period
	names := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		names[i] = c.Name
	}
	return &aggCodec{l: l, nd: len(info.Dimensions), names: names}
}

// dimDicts holds one dictionary per dimension for the payloads of one
// fold batch or one install: every payload built over it codes its
// dimension columns into the same dictionaries, so a batch interns each
// value once, not once per period.
type dimDicts struct {
	cols []warehouse.ColumnVector // string vectors holding only their dictionary
	ix   []store.Index
}

// newDimDicts starts nd empty dictionaries with room for the values of
// a few of n groups.
func newDimDicts(nd, n int) *dimDicts {
	d := &dimDicts{cols: make([]warehouse.ColumnVector, nd), ix: make([]store.Index, nd)}
	for i := range d.cols {
		d.cols[i] = warehouse.ColumnVector{Type: warehouse.TypeString, Dict: make([]string, 0, min(n, 8))}
	}
	return d
}

// intern appends the code of each dimension value of dims to dst.
func (d *dimDicts) intern(dst []uint32, dims []string) []uint32 {
	for i, v := range dims {
		dst = append(dst, d.cols[i].Intern(&d.ix[i], v))
	}
	return dst
}

// aggColumns is a payload of the table layout under construction: a
// ColumnData and its typed vectors, addressed by accRow field.
type aggColumns struct {
	cd         *warehouse.ColumnData
	periodKeys []int64
	dims       [][]uint32 // by dimension: codes into the dimDicts' dictionary
	ns         []int64
	lastTS     []float64   // nil unless the layout stores last_ts
	state      [][]float64 // by state slot
}

// newColumns starts an n-row payload whose dimension columns index dd,
// which already holds every value the payload's keys code; putKey and
// putState fill a row.
func (c *aggCodec) newColumns(n int, dd *dimDicts) *aggColumns {
	cd := &warehouse.ColumnData{Rows: n, Names: c.names, Cols: make([]warehouse.ColumnVector, len(c.names))}
	ints := func(ci int) []int64 {
		v := make([]int64, n)
		cd.Cols[ci] = store.ColumnOf(v)
		return v
	}
	floats := func(ci int) []float64 {
		v := make([]float64, n)
		cd.Cols[ci] = store.ColumnOf(v)
		return v
	}
	b := &aggColumns{cd: cd, periodKeys: ints(0), dims: make([][]uint32, c.nd),
		ns: ints(1 + c.nd), state: make([][]float64, len(c.l.state))}
	for d := range b.dims {
		b.dims[d] = make([]uint32, n)
		cd.Cols[1+d] = warehouse.ColumnVector{Type: warehouse.TypeString, Codes: b.dims[d], Dict: dd.cols[d].Dict}
	}
	if c.l.lastTS {
		b.lastTS = floats(2 + c.nd)
	}
	for i := range b.state {
		b.state[i] = floats(len(c.names) - len(b.state) + i)
	}
	return b
}

// putKey writes row ri's group key: its period key and the code of
// each dimension value.
func (b *aggColumns) putKey(ri int, periodKey int64, codes []uint32) {
	b.periodKeys[ri] = periodKey
	for d, c := range codes {
		b.dims[d][ri] = c
	}
}

// putState writes row ri's running state.
func (b *aggColumns) putState(ri int, acc *accRow) {
	b.ns[ri] = acc.n
	if b.lastTS != nil {
		b.lastTS[ri] = acc.lastTS
	}
	for i, v := range acc.state {
		b.state[i][ri] = v
	}
}

// columns renders one period's groups as a payload of the period's
// table, rows in sorted group-key order (deterministic installs:
// replicas replaying the resulting LOAD event end up bit-identical).
func (c *aggCodec) columns(groups map[string]*accRow) *warehouse.ColumnData {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dd := newDimDicts(c.nd, len(keys))
	codes := make([]uint32, 0, len(keys)*c.nd)
	for _, k := range keys {
		codes = dd.intern(codes, groups[k].dims)
	}
	b := c.newColumns(len(keys), dd)
	for ri, k := range keys {
		acc := groups[k]
		b.putKey(ri, acc.periodKey, codes[ri*c.nd:(ri+1)*c.nd])
		b.putState(ri, acc)
	}
	return b.cd
}

// aggReader is the codec bound to one table view's typed vectors: the
// one reader of aggregation (and pagg) tables, for the incremental
// merge's existing rows, the rebuild's pagg load and chart queries.
type aggReader struct {
	c      *aggCodec
	pks    []int64
	dims   []warehouse.StringView
	ns     []int64
	lastTS []float64   // nil unless the layout stores last_ts
	state  [][]float64 // by state slot
}

// reader takes one view's vectors by their layout positions, in one
// pass over the layout: the engine makes every aggregation and pagg
// table from aggDef, and EnsureTable refuses any other layout, so no
// column is looked up by name. A vector of another type than the
// layout's is an error. An empty view has no vectors to take; read none
// of it.
func (c *aggCodec) reader(td *warehouse.TableData) (*aggReader, error) {
	first := len(c.names) - len(c.l.state) // the first state column
	r := &aggReader{c: c, dims: make([]warehouse.StringView, c.nd), state: make([][]float64, len(c.l.state))}
	for pos, name := range c.names {
		var ok bool
		switch {
		case pos == 0:
			r.pks = td.IntCol(pos)
			ok = r.pks != nil
		case pos <= c.nd:
			r.dims[pos-1] = td.StringCol(pos)
			ok = r.dims[pos-1].Codes != nil
		case pos == 1+c.nd:
			r.ns = td.IntCol(pos)
			ok = r.ns != nil
		case pos < first: // last_ts
			r.lastTS = td.FloatCol(pos)
			ok = r.lastTS != nil
		default:
			r.state[pos-first] = td.FloatCol(pos)
			ok = r.state[pos-first] != nil
		}
		if !ok {
			return nil, fmt.Errorf("aggregate: aggregation table column %d (%q) is not of its layout's type", pos, name)
		}
	}
	return r, nil
}

// stateVec returns the stored vector of state s, or nil for none (an
// empty of, see metricState).
func (r *aggReader) stateVec(s stateCol) ([]float64, error) {
	if s.of == "" {
		return nil, nil
	}
	i := slices.Index(r.c.l.state, s)
	if i < 0 {
		return nil, fmt.Errorf("aggregate: aggregation table stores no column %q", s.name())
	}
	return r.state[i], nil
}

// accAt reconstructs the stored group at a view position as a fresh
// accumulator (fresh slices: the rebuild's merge mutates accumulators
// in place).
func (r *aggReader) accAt(pos int) *accRow {
	acc := r.c.l.newAcc()
	acc.periodKey = r.pks[pos]
	acc.dims = make([]string, len(r.dims))
	for i := range r.dims {
		acc.dims[i] = r.dims[i].At(pos)
	}
	r.load(pos, &acc)
	return &acc
}

// load reads the running state stored at a view position into acc,
// whose state is already sized (rowLayout.newAcc). The key — periodKey
// and dims — is the caller's: it found the row by it.
func (r *aggReader) load(pos int, acc *accRow) {
	acc.n = r.ns[pos]
	if r.lastTS != nil {
		acc.lastTS = r.lastTS[pos]
	}
	for i := range acc.state {
		acc.state[i] = r.state[i][pos]
	}
}
