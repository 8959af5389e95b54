package warehouse

import (
	"math"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// Change is what one write transaction did to one table, by position:
// Inserted are the rows it wrote, new or replacing stored ones, and
// Replaced the stored rows they replaced or that it deleted, each in
// the order the transaction wrote them. The positions index Data, the
// table's vectors as the transaction left them, captured at commit
// before any compaction: an immutable view in which a replaced or
// deleted row, and a written row replaced again, is tombstoned but
// still readable, so no row is boxed to describe the write. Whole marks
// a truncate or bulk load (LOAD): the table's whole content was
// replaced, which no list of rows describes, and the lists are empty.
// Only the warehouse builds one, while it writes.
type Change struct {
	Inserted, Replaced []int
	Data               *TableData
	Whole              bool
}

// TableChange is one table's Change within a Record.
type TableChange struct {
	Schema, Table string
	Change
}

// Record is what one write transaction did: a TableChange for every
// non-derived table it changed, in the order it first changed them, on
// a satellite's ingest and a hub's Apply alike. An upsert of a row
// equal to the stored one changes nothing, so it is not in the record
// (nor written, nor logged).
type Record []TableChange

// Of returns the change the transaction made to schema.table; the zero
// Change when it left the table alone.
func (r Record) Of(schema, table string) Change {
	for _, tc := range r {
		if tc.Schema == schema && tc.Table == table {
			return tc.Change
		}
	}
	return Change{}
}

// Write is Do that also returns the transaction's Record: fn runs as
// one write transaction, and the record covers whatever fn wrote,
// also when fn fails.
func (db *DB) Write(fn func() error) (Record, error) { return db.txn(true, fn) }

// txn runs fn as one write transaction, recording what it did when
// record is set. Every table fn touched publishes a fresh snapshot when
// txn returns, a panic in fn included.
func (db *DB) txn(record bool, fn func() error) (rec Record, err error) {
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.recording, db.inTxn = record, true
	defer func() {
		db.recording, db.inTxn = false, false
		rec = db.commitLocked()
	}()
	return nil, fn()
}

// sameCells reports whether row lp of cols holds exactly the coerced
// values vals, one per column: floats compared by bits, times as
// instants, everything else by equality, and NULL equal only to NULL.
func sameCells(cols []ColumnVector, lp int, vals []any) bool {
	for i := range cols {
		v := &cols[i]
		if v.Nulls[lp] || vals[i] == nil {
			if v.Nulls[lp] != (vals[i] == nil) {
				return false
			}
			continue
		}
		var same bool
		switch v.Type {
		case TypeInt:
			same = v.Ints[lp] == vals[i].(int64)
		case TypeFloat:
			same = math.Float64bits(v.Floats[lp]) == math.Float64bits(vals[i].(float64))
		case TypeString:
			same = v.Dict[v.Codes[lp]] == vals[i].(string)
		case TypeBool:
			same = v.Bools[lp] == vals[i].(bool)
		case TypeTime:
			n, _ := store.UnixNanos(vals[i].(time.Time))
			same = v.Nanos[lp] == n
		}
		if !same {
			return false
		}
	}
	return true
}
