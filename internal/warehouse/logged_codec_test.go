package warehouse

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// modelTable is a table of a random layout and the test's model of it:
// the stored rows by key, as the boxed values a row insert logs.
type modelTable struct {
	tab  *Table
	def  TableDef
	pk   []int
	rows map[string][]any
}

// randomLayout draws a table of 2 to 7 columns of random types, each
// nullable or not, under a primary key of its first column, of its first
// two, or none.
func randomLayout(rng *rand.Rand, name string) TableDef {
	def := TableDef{Name: name, Columns: []Column{{Name: "k", Type: TypeInt}}}
	types := []ColumnType{TypeInt, TypeFloat, TypeString, TypeBool, TypeTime}
	for i := 1 + rng.Intn(6); i > 0; i-- {
		def.Columns = append(def.Columns, Column{Name: fmt.Sprintf("c%d", len(def.Columns)),
			Type: types[rng.Intn(len(types))], Nullable: rng.Intn(2) == 0})
	}
	switch rng.Intn(3) {
	case 0:
		def.PrimaryKey = []string{"k"}
	case 1:
		def.PrimaryKey = []string{"k", "c1"}
	}
	return def
}

// randomCellOf draws a canonical cell of col from few values, so that
// rows repeat each other's cells (cellSame) and keys collide, with the
// float bits a codec must keep: -0, NaN and non-integers.
func randomCellOf(rng *rand.Rand, col Column) any {
	if col.Nullable && rng.Intn(4) == 0 {
		return nil
	}
	switch col.Type {
	case TypeInt:
		return int64(rng.Intn(5))
	case TypeFloat:
		return []float64{0, math.Copysign(0, -1), 1.5, 2, math.NaN(), 1e300}[rng.Intn(6)]
	case TypeString:
		return []string{"", "a", "beta"}[rng.Intn(3)]
	case TypeBool:
		return rng.Intn(2) == 0
	default:
		return time.Unix(int64(rng.Intn(3))-1, int64(rng.Intn(2))*999_999_999).UTC()
	}
}

func (m *modelTable) randomRow(rng *rand.Rand, keys int) []any {
	row := make([]any, len(m.def.Columns))
	for i, c := range m.def.Columns {
		row[i] = randomCellOf(rng, c)
	}
	row[0] = int64(rng.Intn(keys))
	return row
}

// keyOf renders a row's key as the index compares it: floats by bits,
// times by instant, NULL apart from every value.
func (m *modelTable) keyOf(row []any) string {
	var b strings.Builder
	for _, ci := range m.pk {
		switch x := row[ci].(type) {
		case float64:
			fmt.Fprintf(&b, "f%x|", math.Float64bits(x))
		case time.Time:
			fmt.Fprintf(&b, "t%d|", x.UnixNano())
		default:
			fmt.Fprintf(&b, "%T%v|", x, x)
		}
	}
	return b.String()
}

// TestCommitCodesRowsAsAppendEvents: for random tables and random
// transactions of row inserts, upserts (equal rows among them) and
// deletes, batch inserts and upserts, and truncates, every block a
// commit appends to the binlog is byte for byte AppendEvents of the
// boxed events the test's model expects, numbered and timed as the
// commit numbered and timed them: coding the rows from the vectors
// changes no byte of the binlog, the WAL or the wire. Some
// transactions delete or replace most of a table, so that its commit
// compacts it, which installs new vectors before the log is coded.
func TestCommitCodesRowsAsAppendEvents(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open("logged")
		s := db.EnsureSchema("s")
		var tabs []*modelTable
		for i := 1 + rng.Intn(3); i > 0; i-- {
			def := randomLayout(rng, fmt.Sprintf("t%d", len(tabs)))
			tab, err := s.EnsureTable(def)
			if err != nil {
				t.Fatal(err)
			}
			m := &modelTable{tab: tab, def: def, rows: map[string][]any{}}
			for _, k := range def.PrimaryKey {
				m.pk = append(m.pk, tab.lay.colIndex[k])
			}
			tabs = append(tabs, m)
		}
		for txn := 0; txn < 60; txn++ {
			var want []Event
			emit := func(m *modelTable, kind EventKind, row, old []any) {
				want = append(want, Event{Kind: kind, Schema: "s", Table: m.def.Name, Row: row, Old: old})
			}
			var rowsAtEnd []int
			head := len(db.binlog.blocks)
			err := db.Do(func() error {
				switch txn % 15 {
				case 13: // fill each keyed table with 600 rows of new keys
					for _, m := range tabs {
						for id := int64(1000); id < 1600 && m.pk != nil; id++ {
							row := m.randomRow(rng, 1)
							row[0] = id
							if _, ok := m.rows[m.keyOf(row)]; ok {
								continue
							}
							if err := m.tab.InsertRow(row); err != nil {
								return err
							}
							m.rows[m.keyOf(row)] = row
							emit(m, EvInsert, row, nil)
						}
					}
				case 14: // delete three rows in four: the commit compacts
					for _, m := range tabs {
						keys := make([]string, 0, len(m.rows))
						for k := range m.rows {
							keys = append(keys, k)
						}
						sort.Strings(keys)
						for _, k := range keys {
							row := m.rows[k]
							if rng.Intn(4) == 0 {
								continue
							}
							key := make([]any, len(m.pk))
							for n, ci := range m.pk {
								key[n] = row[ci]
							}
							if !m.tab.DeleteByKey(key...) {
								return fmt.Errorf("DeleteByKey of the stored %s found nothing", k)
							}
							delete(m.rows, k)
							emit(m, EvDelete, nil, row)
						}
					}
				}
				for op := rng.Intn(40); op >= 0; op-- {
					m := tabs[rng.Intn(len(tabs))]
					keys := 8 + txn*4
					row := m.randomRow(rng, keys)
					k := m.keyOf(row)
					stored, present := m.rows[k]
					switch r := rng.Intn(20); {
					case m.pk == nil || r < 6: // a row insert
						err := m.tab.InsertRow(row)
						if m.pk != nil && present {
							if err == nil {
								return fmt.Errorf("insert of a stored key %s succeeded", k)
							}
							continue
						}
						if err != nil {
							return err
						}
						if m.pk != nil {
							m.rows[k] = row
						}
						emit(m, EvInsert, row, nil)
					case r < 11: // a row upsert, sometimes of the stored row itself
						if present && rng.Intn(3) == 0 {
							row = stored
						}
						if err := m.tab.UpsertRow(row); err != nil {
							return err
						}
						switch {
						case !present:
							emit(m, EvInsert, row, nil)
						case !sameRow(stored, row):
							emit(m, EvUpdate, row, nil)
						}
						m.rows[k] = row
					case r < 14: // a delete by key
						key := make([]any, len(m.pk))
						for n, ci := range m.pk {
							key[n] = row[ci]
						}
						if m.tab.DeleteByKey(key...) != present {
							return fmt.Errorf("DeleteByKey of %s disagrees with the model", k)
						}
						if present {
							delete(m.rows, k)
							emit(m, EvDelete, nil, stored)
						}
					case r < 17: // a batch insert, repeats and stored keys skipped
						batch := [][]any{row}
						for n := rng.Intn(6); n > 0; n-- {
							batch = append(batch, m.randomRow(rng, keys))
						}
						skipped, err := m.tab.InsertColumns(columnDataOf(m.def, batch))
						if err != nil {
							return err
						}
						n := 0
						for _, b := range batch {
							if _, ok := m.rows[m.keyOf(b)]; ok {
								n++
								continue
							}
							m.rows[m.keyOf(b)] = b
							emit(m, EvInsert, b, nil)
						}
						if skipped != n {
							return fmt.Errorf("InsertColumns skipped %d rows, the model %d", skipped, n)
						}
					case r < 19: // a batch upsert of distinct keys
						batch := [][]any{row}
						seen := map[string]bool{k: true}
						for n := rng.Intn(6); n > 0; n-- {
							b := m.randomRow(rng, keys)
							if !seen[m.keyOf(b)] {
								seen[m.keyOf(b)] = true
								batch = append(batch, b)
							}
						}
						if err := m.tab.UpsertColumns(columnDataOf(m.def, batch), nil); err != nil {
							return err
						}
						for _, b := range batch {
							kind := EvInsert
							if _, ok := m.rows[m.keyOf(b)]; ok {
								kind = EvUpdate
							}
							m.rows[m.keyOf(b)] = b
							emit(m, kind, b, nil)
						}
					default:
						m.tab.Truncate()
						m.rows = map[string][]any{}
						want = append(want, Event{Kind: EvTruncate, Schema: "s", Table: m.def.Name})
					}
				}
				rowsAtEnd = rowsAtEnd[:0]
				for _, m := range tabs {
					rowsAtEnd = append(rowsAtEnd, m.tab.rows)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("seed %d txn %d: %v", seed, txn, err)
			}
			for i, m := range tabs {
				if m.tab.rows < rowsAtEnd[i] {
					compactions++
				}
			}
			blocks := db.binlog.blocks[head:]
			for i := range blocks {
				k := &blocks[i]
				got, err := decodeBlock(nil, k.buf, 1)
				if err != nil {
					t.Fatal(err)
				}
				n := i * maxBlockEvents
				chunk := want[n:min(n+maxBlockEvents, len(want))]
				for j := range chunk {
					chunk[j].LSN, chunk[j].Time = k.first+uint64(j), got[0].Time
				}
				if exp := AppendEvents(nil, chunk); !bytes.Equal(k.buf, exp) {
					t.Fatalf("seed %d txn %d block %d: the commit coded\n%x\nAppendEvents of the boxed events codes\n%x", seed, txn, i, k.buf, exp)
				}
			}
			total := 0
			for _, k := range blocks {
				total += k.n
			}
			if total != len(want) {
				t.Fatalf("seed %d txn %d: the commit logged %d events, the model expects %d", seed, txn, total, len(want))
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no commit compacted a table")
	}
}

// sameRow reports whether two canonical rows hold the same cells, as
// an upsert compares them: floats by bits, times by instant, NULL equal
// only to NULL.
func sameRow(a, b []any) bool {
	for i := range a {
		switch x := a[i].(type) {
		case float64:
			y, ok := b[i].(float64)
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		case time.Time:
			y, ok := b[i].(time.Time)
			if !ok || !x.Equal(y) {
				return false
			}
		default:
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
