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
// Every writer (incremental upsert, delta upsert, rebuild and reset bulk
// loads) and every reader (the incremental merge's existing row, the
// rebuild's pagg load) goes through it, so a stored group reads back as
// exactly the accumulator that was written. Built once per operation.
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
func (c *aggCodec) newAcc() accRow {
	vals := make([]float64, 4*len(c.cols)+len(c.weights))
	n := len(c.cols)
	return accRow{sums: vals[:n:n], mins: vals[n : 2*n : 2*n], maxs: vals[2*n : 3*n : 3*n],
		lasts: vals[3*n : 4*n : 4*n], wsums: vals[4*n:]}
}

// row renders acc as a positional table row into buf (reused by the
// caller across groups; len(c.names) long) and returns it.
func (c *aggCodec) row(acc *accRow, buf []any) []any {
	buf[0] = acc.periodKey
	for i, d := range acc.dims {
		buf[1+i] = d
	}
	ci := 1 + c.nd
	buf[ci] = acc.n
	buf[ci+1] = acc.lastTS
	ci += 2
	for i := range c.cols {
		buf[ci] = acc.sums[i]
		buf[ci+1] = acc.mins[i]
		buf[ci+2] = acc.maxs[i]
		buf[ci+3] = acc.lasts[i]
		ci += 4
	}
	for i := range c.weights {
		buf[ci] = acc.wsums[i]
		ci++
	}
	return buf[:ci]
}

// load reads a stored row's running state into acc, whose measure
// slices are already sized (newAcc). The key — periodKey and dims — is
// the caller's: it looked the row up by it.
func (c *aggCodec) load(row warehouse.Row, acc *accRow) {
	ci := 1 + c.nd
	acc.n = row.Int(c.names[ci])
	acc.lastTS = row.Float(c.names[ci+1])
	ci += 2
	for i := range c.cols {
		acc.sums[i] = row.Float(c.names[ci])
		acc.mins[i] = row.Float(c.names[ci+1])
		acc.maxs[i] = row.Float(c.names[ci+2])
		acc.lasts[i] = row.Float(c.names[ci+3])
		ci += 4
	}
	for i := range c.weights {
		acc.wsums[i] = row.Float(c.names[ci])
		ci++
	}
}

// columns renders one period's groups as the bulk-load payload of the
// period's table, rows in sorted group-key order (deterministic
// installs: replicas replaying the resulting LOAD event end up
// bit-identical).
func (c *aggCodec) columns(groups map[string]*accRow) *warehouse.ColumnData {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := len(keys)
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
	periodKeys := ints(0)
	dimVecs := make([][]string, c.nd)
	for d := range dimVecs {
		dimVecs[d] = make([]string, n)
		cd.Cols[1+d] = warehouse.ColumnVector{Type: warehouse.TypeString, Strs: dimVecs[d]}
	}
	ns, lastTS := ints(1+c.nd), floats(2+c.nd)
	measVecs := make([][]float64, len(c.names)-3-c.nd) // sum,min,max,last per measure, then wsums
	for i := range measVecs {
		measVecs[i] = floats(3 + c.nd + i)
	}
	wsumVecs := measVecs[4*len(c.cols):]
	for ri, k := range keys {
		acc := groups[k]
		periodKeys[ri] = acc.periodKey
		for d := range dimVecs {
			dimVecs[d][ri] = acc.dims[d]
		}
		ns[ri] = acc.n
		lastTS[ri] = acc.lastTS
		for i := range c.cols {
			measVecs[4*i][ri] = acc.sums[i]
			measVecs[4*i+1][ri] = acc.mins[i]
			measVecs[4*i+2][ri] = acc.maxs[i]
			measVecs[4*i+3][ri] = acc.lasts[i]
		}
		for i := range wsumVecs {
			wsumVecs[i][ri] = acc.wsums[i]
		}
	}
	return cd
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
	return &acc
}
