package warehouse

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// keyedDef is allTypesDef under a composite primary key.
func keyedDef() TableDef {
	def := allTypesDef()
	def.PrimaryKey = []string{"id", "b"}
	return def
}

// columnDataOf renders canonical positional rows as a columnar payload.
// Only nullable columns get a validity vector.
func columnDataOf(def TableDef, rows [][]any) *ColumnData {
	n := len(rows)
	cd := &ColumnData{Rows: n, Names: make([]string, len(def.Columns)), Cols: make([]ColumnVector, len(def.Columns))}
	for i, c := range def.Columns {
		cd.Names[i] = c.Name
		var nulls []bool
		if c.Nullable {
			nulls = make([]bool, n)
		}
		ints, floats, strs, bools, times := make([]int64, n), make([]float64, n), make([]string, n), make([]bool, n), make([]time.Time, n)
		for r, row := range rows {
			times[r] = time.Unix(0, 0) // what a NULL time cell holds
			switch x := row[i].(type) {
			case nil:
				nulls[r] = true
			case int64:
				ints[r] = x
			case float64:
				floats[r] = x
			case string:
				strs[r] = x
			case bool:
				bools[r] = x
			case time.Time:
				times[r] = x
			}
		}
		var v ColumnVector
		switch c.Type {
		case TypeInt:
			v = store.ColumnOf(ints)
		case TypeFloat:
			v = store.ColumnOf(floats)
		case TypeString:
			v = store.ColumnOf(strs)
		case TypeBool:
			v = store.ColumnOf(bools)
		case TypeTime:
			v = store.ColumnOf(times)
		}
		v.Nulls = nulls
		cd.Cols[i] = v
	}
	return cd
}

// sValues are the values randomKeyedRows draws for the nullable
// string column s: few and repeated.
var sValues = []any{nil, "", "alpha", "beta"}

// randomKeyedRows draws n rows of keyedDef with distinct keys from a
// space of 2*ids keys.
func randomKeyedRows(rng *rand.Rand, n, ids int) [][]any {
	rows := make([][]any, 0, n)
	taken := map[[2]any]bool{}
	for len(rows) < n {
		id, b := int64(rng.Intn(ids)), rng.Intn(2) == 0
		if taken[[2]any{id, b}] {
			continue
		}
		taken[[2]any{id, b}] = true
		var nn any
		if rng.Intn(3) > 0 {
			nn = rng.Int63n(1000)
		}
		rows = append(rows, []any{id, rng.NormFloat64(), sValues[rng.Intn(len(sValues))], b,
			time.Unix(rng.Int63n(1e9), rng.Int63n(1e9)).UTC(), nn})
	}
	return rows
}

// tableState is everything a reader can ask of a table, plus the
// writer's own bookkeeping.
type tableState struct {
	Scan    [][]any
	Len     int
	ByKey   map[string][]any
	PK      map[string]int
	Rows    int
	Deleted int
	LastLSN uint64
}

func stateOf(db *DB, tab *Table, ids int) tableState {
	st := tableState{ByKey: map[string][]any{}, PK: map[string]int{}}
	db.View(func() error {
		tab.Scan(func(r Row) bool {
			st.Scan = append(st.Scan, r.Values())
			return true
		})
		st.Len = tab.Len()
		for id := int64(0); id < int64(ids); id++ {
			for _, b := range []bool{false, true} {
				if r, ok := tab.GetByKey(id, b); ok {
					st.ByKey[fmt.Sprint(id, b)] = r.Values()
				}
			}
		}
		st.PK = keyPositions(tab)
		st.Rows, st.Deleted = tab.rows, tab.deleted
		return nil
	})
	st.LastLSN = db.Binlog().Last()
	return st
}

func snapshotRows(td *TableData) [][]any {
	var rows [][]any
	scanData(td, func(r Row) bool {
		rows = append(rows, r.Values())
		return true
	})
	return rows
}

// TestUpsertColumnsMatchesUpsertRow sends the same random batches of
// new and existing keys row by row through UpsertRow into one table and
// as one payload through UpsertColumns into its twin. Everything
// observable must stay identical — scan order, key lookups, index
// scans, the key index, the binlog — while a snapshot taken before each
// batch keeps reading the cells it captured. The run replaces rows and
// crosses compactions. The fill hook is checked on the way: it sees,
// in payload order, the position the key index held for each row
// before the call (or -1), View reaches that row's typed cells, and
// the cells fill writes are the ones stored.
func TestUpsertColumnsMatchesUpsertRow(t *testing.T) {
	const ids = 150
	def := keyedDef()
	open := func() (*DB, *Table) {
		db := OpenOptions("twin", Options{})
		tab, err := db.EnsureSchema("modw").EnsureTable(def)
		if err != nil {
			t.Fatal(err)
		}
		return db, tab
	}
	dbR, tabR := open()
	dbC, tabC := open()
	rng := rand.New(rand.NewSource(20))
	replaced, compactions := 0, 0
	for round := 0; round < 80; round++ {
		rows := randomKeyedRows(rng, rng.Intn(60), ids)
		cd := columnDataOf(def, rows)
		fs := cd.Cols[1].Floats // column "f": left for fill to write
		for r := range fs {
			fs[r] = 0
		}

		before := tabC.Data()
		beforeRows := snapshotRows(before)
		rowsBefore := tabC.rows

		if err := dbR.Do(func() error {
			for _, row := range rows {
				if err := tabR.UpsertRow(row); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := dbC.Do(func() error {
			want := make([]int, len(rows))
			keys := keyPositions(tabC)
			for r, row := range rows {
				pos, ok := keys[fmt.Sprint([]any{row[0], row[3]})]
				if _, found := tabC.GetByKey(row[0], row[3]); found != ok {
					t.Fatalf("round %d: row %d: GetByKey found %v, key index %v", round, r, found, ok)
				}
				if !ok {
					pos = -1
				}
				want[r] = pos
			}
			next := 0
			err := tabC.UpsertColumns(cd, func(r, pos int) error {
				if r != next || pos != want[r] {
					t.Fatalf("round %d: fill(%d, %d), want fill(%d, %d)", round, r, pos, next, want[next])
				}
				next++
				fs[r] = rows[r][1].(float64)
				if pos < 0 {
					return nil
				}
				cur, _ := tabC.GetByKey(rows[r][0], rows[r][3])
				v := tabC.View()
				if pos >= v.Rows() || v.Tombstones()[pos] {
					t.Fatalf("round %d: View() holds %d rows, and row %d is dead or beyond them", round, v.Rows(), pos)
				}
				fi, _ := v.ColIndex("f")
				ni, _ := v.ColIndex("n")
				if v.FloatCol(fi)[pos] != cur.Float("f") || v.IntCol(ni)[pos] != cur.Int("n") || v.NullCol(ni)[pos] != (cur.Get("n") == nil) {
					t.Fatalf("round %d: typed cells at %d disagree with GetByKey %v", round, pos, cur.Values())
				}
				replaced++
				return nil
			})
			if next != len(rows) {
				t.Fatalf("round %d: fill ran for %d of %d rows", round, next, len(rows))
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if tabC.rows < rowsBefore+len(rows) {
			compactions++
		}

		if got := snapshotRows(before); !reflect.DeepEqual(got, beforeRows) {
			t.Fatalf("round %d: the snapshot taken before the batch changed under it:\n got %v\nwant %v", round, got, beforeRows)
		}
		want, got := stateOf(dbR, tabR, ids), stateOf(dbC, tabC, ids)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d (%d rows): tables diverged\nUpsertRow:     %+v\nUpsertColumns: %+v", round, len(rows), want, got)
		}
		if !reflect.DeepEqual(snapshotRows(tabR.Data()), snapshotRows(tabC.Data())) {
			t.Fatalf("round %d: published snapshots diverged", round)
		}
	}
	if replaced == 0 || compactions == 0 {
		t.Fatalf("the run probed and replaced %d rows and crossed %d compactions; want both above zero",
			replaced, compactions)
	}
	evR, err := dbR.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	evC, err := dbC.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evR) != len(evC) {
		t.Fatalf("UpsertRow logged %d events, UpsertColumns %d", len(evR), len(evC))
	}
	for i := range evR {
		evR[i].Time, evC[i].Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(evR[i], evC[i]) {
			t.Fatalf("event %d: UpsertRow logged %+v, UpsertColumns %+v", i, evR[i], evC[i])
		}
	}
}

// TestUpsertColumnsRefusalMutatesNothing: a payload that repeats a key,
// fails the strict validation, targets a table without a primary key or
// whose fill hook fails is refused with the table exactly as it was — no
// row, key, index entry, tombstone, event or new snapshot. A payload
// refused before its keys are matched never calls fill; a repeated key
// is found in the matching pass, so fill has run for the rows before it
// and never runs for the repeat.
func TestUpsertColumnsRefusalMutatesNothing(t *testing.T) {
	const ids = 40
	def := keyedDef()
	db := OpenOptions("refuse", Options{})
	tab, err := db.EnsureSchema("modw").EnsureTable(def)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	stored := randomKeyedRows(rng, 30, ids)
	if err := db.Do(func() error { return tab.UpsertColumns(columnDataOf(def, stored), nil) }); err != nil {
		t.Fatal(err)
	}
	unkeyed := allTypesDef()
	unkeyed.Name, unkeyed.PrimaryKey = "unkeyed", nil
	noPK, err := db.EnsureSchema("modw").EnsureTable(unkeyed)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() [][]any { // existing keys to replace, then new ones
		rows := append([][]any(nil), stored[:10]...)
		for i := 0; i < 10; i++ {
			rows = append(rows, []any{int64(ids + i), 1.5, "alpha", true, time.Unix(int64(i), 0).UTC(), nil})
		}
		return rows
	}
	dupOfExisting := append(fresh(), stored[3])
	dupOfNew := append(fresh(), fresh()[15])
	wrongType := columnDataOf(def, fresh())
	wrongType.Cols[1] = ColumnVector{Type: TypeFloat, Ints: make([]int64, wrongType.Rows)}
	short := columnDataOf(def, fresh())
	short.Cols[4].Nanos = short.Cols[4].Nanos[:5]
	negative := columnDataOf(def, nil)
	negative.Rows = -1
	nullKey := columnDataOf(def, fresh())
	nullKey.Cols[0].Nulls = make([]bool, nullKey.Rows)
	nullKey.Cols[0].Nulls[19] = true

	fillErr := errors.New("fill refused the row")
	for _, tc := range []struct {
		name  string
		tab   *Table
		cd    *ColumnData
		want  string
		fills int // fill calls the refusal leaves room for
		fail  int // the row whose fill fails, or -1
	}{
		{"key of an existing row twice", tab, columnDataOf(def, dupOfExisting), "duplicate primary key", 20, -1},
		{"new key twice", tab, columnDataOf(def, dupOfNew), "duplicate primary key", 20, -1},
		{"mistyped payload", tab, wrongType, "missing DOUBLE payload", 0, -1},
		{"short vector", tab, short, "has 5 values, want 20 rows", 0, -1},
		{"negative row count", tab, negative, "declares -1 rows", 0, -1},
		{"NULL in a key column", tab, nullKey, "is NULL but the column is not nullable", 0, -1},
		{"no payload", tab, nil, "carries no column data", 0, -1},
		{"no primary key", noPK, columnDataOf(unkeyed, fresh()), "has no primary key", 0, -1},
		{"fill fails on the first row", tab, columnDataOf(def, fresh()), fillErr.Error(), 1, 0},
		{"fill fails after replacing", tab, columnDataOf(def, fresh()), fillErr.Error(), 13, 12},
		{"fill fails on the last row", tab, columnDataOf(def, fresh()), fillErr.Error(), 20, 19},
	} {
		before, beforeNoPK := stateOf(db, tab, ids+10), stateOf(db, noPK, 0)
		snap, snapNoPK := tab.Data(), noPK.Data()
		fills := 0
		err := db.Do(func() error {
			return tc.tab.UpsertColumns(tc.cd, func(r, _ int) error {
				if r != fills {
					t.Errorf("%s: fill(%d) after %d calls", tc.name, r, fills)
				}
				fills++
				if r == tc.fail {
					return fillErr
				}
				return nil
			})
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.want)
		}
		if fills != tc.fills {
			t.Errorf("%s: fill ran %d times, want %d", tc.name, fills, tc.fills)
		}
		if after := stateOf(db, tab, ids+10); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: the refused payload changed the table\nbefore %+v\nafter  %+v", tc.name, before, after)
		}
		if after := stateOf(db, noPK, 0); !reflect.DeepEqual(beforeNoPK, after) {
			t.Errorf("%s: the refused payload changed the unkeyed table", tc.name)
		}
		if tab.Data() != snap || noPK.Data() != snapNoPK {
			t.Errorf("%s: the refused payload published a new snapshot", tc.name)
		}
	}
	// The table still takes the good payload.
	if err := db.Do(func() error { return tab.UpsertColumns(columnDataOf(def, fresh()), nil) }); err != nil {
		t.Fatal(err)
	}
	if got := tab.Len(); got != 40 {
		t.Errorf("after the accepted payload the table holds %d rows, want 40", got)
	}
}

// TestColumnDataValidateIsStrict pins every way a columnar payload can
// disagree with the table definition to its error — the gate bulk
// loads, batch upserts, peers' LOAD events and snapshot files all pass.
// A refused load leaves the table as it was; a negative row count, which
// once reached makeslice, is refused like the rest.
func TestColumnDataValidateIsStrict(t *testing.T) {
	def := allTypesDef()
	rows := [][]any{
		{int64(1), 1.5, "alpha", true, time.Unix(1, 0).UTC(), int64(7)},
		{int64(2), 2.5, nil, false, time.Unix(2, 0).UTC(), nil},
	}
	edit := func(f func(cd *ColumnData)) *ColumnData {
		cd := columnDataOf(def, rows)
		f(cd)
		return cd
	}
	bare := func(rows int) *ColumnData { // the layout with no payload at all
		cd := columnDataOf(def, nil)
		for i := range cd.Cols {
			cd.Cols[i] = ColumnVector{Type: cd.Cols[i].Type}
		}
		cd.Rows = rows
		return cd
	}
	cases := []struct {
		name string
		cd   *ColumnData
		want string // "" = valid
	}{
		{"valid", columnDataOf(def, rows), ""},
		{"valid, no rows and no payloads", bare(0), ""},
		{"nil", nil, `load for table "t" carries no column data`},
		{"negative rows", bare(-1), `load for table "t" declares -1 rows`},
		{"column missing", edit(func(cd *ColumnData) { cd.Names, cd.Cols = cd.Names[:5], cd.Cols[:5] }), `has 5 columns, definition has 6`},
		{"column renamed", edit(func(cd *ColumnData) { cd.Names[1] = "x" }), `column 1 is "x", definition says "f"`},
		{"other type", edit(func(cd *ColumnData) { cd.Cols[1] = ColumnVector{Type: TypeInt, Ints: make([]int64, 2)} }), `column "f" carries BIGINT data, definition says DOUBLE`},
		{"two payloads", edit(func(cd *ColumnData) { cd.Cols[1].Ints = make([]int64, 2) }), `column "f" carries mixed-type data (2 typed payloads)`},
		{"int payload missing", edit(func(cd *ColumnData) { cd.Cols[0].Ints = nil }), `column "id": missing BIGINT payload`},
		{"float payload missing", edit(func(cd *ColumnData) { cd.Cols[1].Floats = nil }), `column "f": missing DOUBLE payload`},
		{"string payload missing", edit(func(cd *ColumnData) { cd.Cols[2].Codes, cd.Cols[2].Dict = nil, nil }), `column "s": missing VARCHAR payload`},
		{"bool payload missing", edit(func(cd *ColumnData) { cd.Cols[3].Bools = nil }), `column "b": missing BOOLEAN payload`},
		{"time payload missing", edit(func(cd *ColumnData) { cd.Cols[4].Nanos = nil }), `column "ts": missing DATETIME payload`},
		{"payload of another type only", edit(func(cd *ColumnData) { cd.Cols[3] = store.ColumnOf(make([]string, 2)); cd.Cols[3].Type = TypeBool }), `column "b": missing BOOLEAN payload`},
		{"short payload", edit(func(cd *ColumnData) { cd.Cols[2].Codes = cd.Cols[2].Codes[:1] }), `column "s" has 1 values, want 2 rows`},
		{"code beyond the dictionary", edit(func(cd *ColumnData) { cd.Cols[2].Codes[1] = 9 }), `column "s" row 1 holds code 9 of a 2-entry dictionary`},
		{"short validity", edit(func(cd *ColumnData) { cd.Cols[2].Nulls = cd.Cols[2].Nulls[:1] }), `column "s" has 1 validity entries, want 2 rows`},
		{"NULL where none may be", edit(func(cd *ColumnData) { cd.Cols[3].Nulls = []bool{false, true} }), `column "b" row 1 is NULL but the column is not nullable`},
	}
	db := Open("strict")
	tab, err := db.EnsureSchema("modw").EnsureTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyOne(db, Event{Kind: EvLoad, Schema: "modw", Table: "t", Cols: columnDataOf(def, rows[:1])}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		err := tc.cd.Validate(def)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want valid", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), `warehouse: load for table "t"`) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		before := stateOf(db, tab, 3)
		if err := applyOne(db, Event{Kind: EvLoad, Schema: "modw", Table: "t", Cols: tc.cd}); err == nil {
			t.Errorf("%s: a LOAD event carrying the payload applied", tc.name)
		}
		if after := stateOf(db, tab, 3); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: the refused load changed the table\nbefore %+v\nafter  %+v", tc.name, before, after)
		}
	}
}
