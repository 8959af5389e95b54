package aggregate

import (
	"fmt"
	"sort"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// aggCodec is the one translation between an accRow and a row of an
// aggregation (or pagg) table. aggDef owns the column names and their
// order; the codec owns which accRow field each position holds:
//
//	0            period_key
//	1 .. nd      one per dimension
//	1+nd, 2+nd   n, last_ts
//	then         sum, min, max, last per measure column
//	then         one weighted sum per weight pair
//
// Every writer (the incremental fold's and the incremental delta's
// batch upserts, rebuild and reset bulk loads) goes through newColumns
// and every reader (the incremental merge's existing row, the rebuild's
// pagg load) through reader, both over typed column vectors, so a
// stored group reads back as exactly the accumulator that was written.
// Built once per operation.
type aggCodec struct {
	cols, weights []string // measureColumns(info)
	nd            int      // dimensions
	names         []string // aggDef column names, in layout order
}

func newAggCodec(info realm.Info) *aggCodec {
	cols, weights := measureColumns(info)
	def := aggDef(info, Day) // the layout is the same for every period
	names := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		names[i] = c.Name
	}
	return &aggCodec{cols: cols, weights: weights, nd: len(info.Dimensions), names: names}
}

// newAcc returns a zero accumulator with measure slices of the realm's
// shape and no dimension values.
func (c *aggCodec) newAcc() accRow { return accOfShape(len(c.cols), len(c.weights)) }

// aggColumns is a payload of the table layout under construction: a
// ColumnData and its typed vectors, addressed by accRow field.
type aggColumns struct {
	cd         *warehouse.ColumnData
	periodKeys []int64
	dims       [][]string
	ns         []int64
	lastTS     []float64
	meas       [][]float64 // sum, min, max, last per measure column, then the weighted sums
}

// newColumns starts an n-row payload; putKey and putState fill a row.
func (c *aggCodec) newColumns(n int) *aggColumns {
	cd := &warehouse.ColumnData{Rows: n, Names: c.names, Cols: make([]warehouse.ColumnVector, len(c.names))}
	ints := func(ci int) []int64 {
		v := make([]int64, n)
		cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeInt, Ints: v}
		return v
	}
	floats := func(ci int) []float64 {
		v := make([]float64, n)
		cd.Cols[ci] = warehouse.ColumnVector{Type: warehouse.TypeFloat, Floats: v}
		return v
	}
	b := &aggColumns{cd: cd, periodKeys: ints(0), dims: make([][]string, c.nd),
		ns: ints(1 + c.nd), lastTS: floats(2 + c.nd), meas: make([][]float64, len(c.names)-3-c.nd)}
	for d := range b.dims {
		b.dims[d] = make([]string, n)
		cd.Cols[1+d] = warehouse.ColumnVector{Type: warehouse.TypeString, Strs: b.dims[d]}
	}
	for i := range b.meas {
		b.meas[i] = floats(3 + c.nd + i)
	}
	return b
}

// putKey writes row ri's group key.
func (b *aggColumns) putKey(ri int, periodKey int64, dims []string) {
	b.periodKeys[ri] = periodKey
	for d, v := range dims {
		b.dims[d][ri] = v
	}
}

// putState writes row ri's running state.
func (b *aggColumns) putState(ri int, acc *accRow) {
	b.ns[ri] = acc.n
	b.lastTS[ri] = acc.lastTS
	for i := range acc.sums {
		b.meas[4*i][ri] = acc.sums[i]
		b.meas[4*i+1][ri] = acc.mins[i]
		b.meas[4*i+2][ri] = acc.maxs[i]
		b.meas[4*i+3][ri] = acc.lasts[i]
	}
	wsums := b.meas[4*len(acc.sums):]
	for i := range acc.wsums {
		wsums[i][ri] = acc.wsums[i]
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
	b := c.newColumns(len(keys))
	for ri, k := range keys {
		acc := groups[k]
		b.putKey(ri, acc.periodKey, acc.dims)
		b.putState(ri, acc)
	}
	return b.cd
}

// aggReader is the codec bound to one table chunk's typed vectors.
type aggReader struct {
	c      *aggCodec
	pks    []int64
	dims   [][]string
	ns     []int64
	floats []numCol // last_ts, then the measure and weight columns in layout order
}

// reader resolves one chunk's columns. Layout errors are real errors —
// the engine created these tables itself.
func (c *aggCodec) reader(ch warehouse.ColChunk) (*aggReader, error) {
	col := func(pos int) (int, error) {
		ci, ok := ch.ColIndex(c.names[pos])
		if !ok {
			return 0, fmt.Errorf("aggregate: aggregation table missing column %q", c.names[pos])
		}
		return ci, nil
	}
	intsOf := func(pos int) ([]int64, error) {
		ci, err := col(pos)
		if err != nil {
			return nil, err
		}
		v := ch.IntCol(ci)
		if v == nil {
			return nil, fmt.Errorf("aggregate: aggregation column %q is not an integer column", c.names[pos])
		}
		return v, nil
	}
	r := &aggReader{c: c, dims: make([][]string, c.nd)}
	var err error
	if r.pks, err = intsOf(0); err != nil {
		return nil, err
	}
	if r.ns, err = intsOf(1 + c.nd); err != nil {
		return nil, err
	}
	for i := range r.dims {
		ci, err := col(1 + i)
		if err != nil {
			return nil, err
		}
		if r.dims[i] = ch.StringCol(ci); r.dims[i] == nil {
			return nil, fmt.Errorf("aggregate: aggregation column %q is not a string column", c.names[1+i])
		}
	}
	for pos := 2 + c.nd; pos < len(c.names); pos++ {
		r.floats = append(r.floats, numColOf(ch, c.names[pos]))
	}
	return r, nil
}

// accAt reconstructs the stored group at a chunk position as a fresh
// accumulator (fresh slices: the rebuild's merge mutates accumulators
// in place).
func (r *aggReader) accAt(pos int) *accRow {
	acc := r.c.newAcc()
	acc.periodKey = r.pks[pos]
	acc.dims = make([]string, len(r.dims))
	for i := range r.dims {
		acc.dims[i] = r.dims[i][pos]
	}
	r.load(pos, &acc)
	return &acc
}

// load reads the running state stored at a chunk position into acc,
// whose measure slices are already sized (newAcc). The key — periodKey
// and dims — is the caller's: it found the row by it.
func (r *aggReader) load(pos int, acc *accRow) {
	acc.n = r.ns[pos]
	acc.lastTS = r.floats[0].at(pos)
	f := r.floats[1:]
	for i := range acc.sums {
		acc.sums[i] = f[4*i].at(pos)
		acc.mins[i] = f[4*i+1].at(pos)
		acc.maxs[i] = f[4*i+2].at(pos)
		acc.lasts[i] = f[4*i+3].at(pos)
	}
	for i := range acc.wsums {
		acc.wsums[i] = f[4*len(acc.sums)+i].at(pos)
	}
}
