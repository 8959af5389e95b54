package warehouse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// recordDB opens a logging DB with a keyed table, a table without a
// primary key and a derived table, all of keyedDef's columns.
func recordDB(t *testing.T) (db *DB, keyed, nokey, derived *Table) {
	t.Helper()
	db = Open("record")
	s := db.EnsureSchema("modw")
	tabs := make([]*Table, 3)
	for i, def := range []TableDef{keyedDef(), keyedDef(), keyedDef()} {
		def.Name = []string{"keyed", "nokey", "derived"}[i]
		def.PrimaryKey = [][]string{{"id", "b"}, nil, {"id", "b"}}[i]
		def.Derived = i == 2
		var err error
		if tabs[i], err = s.EnsureTable(def); err != nil {
			t.Fatal(err)
		}
	}
	return db, tabs[0], tabs[1], tabs[2]
}

// boxedChange is a Change with its rows read out of its view, for
// comparing with the rows a test wrote.
type boxedChange struct {
	Inserted, Replaced [][]any
	Whole              bool
}

type boxedTableChange struct {
	Schema, Table string
	boxedChange
}

// boxed reads every row a record's changes name out of their views.
func boxed(rec Record) []boxedTableChange {
	var out []boxedTableChange
	for _, tc := range rec {
		out = append(out, boxedTableChange{tc.Schema, tc.Table, boxedOf(tc.Change)})
	}
	return out
}

func boxedOf(c Change) boxedChange {
	rows := func(at []int) [][]any {
		var out [][]any
		for _, pos := range at {
			out = append(out, Row{lay: c.Data.lay, cols: c.Data.cols, pos: pos}.Values())
		}
		return out
	}
	return boxedChange{Inserted: rows(c.Inserted), Replaced: rows(c.Replaced), Whole: c.Whole}
}

// TestWriteRecordsWhatTheTransactionDid: Write's record holds, per
// non-derived table the transaction changed, every row written — an
// insert, an upsert of a new key and one that replaces the stored row —
// and every stored row replaced or deleted, in the order they happened;
// a truncate or LOAD marks the whole table, and names no row. A derived table's writes,
// and an upsert of a row equal to the stored one, are not recorded.
// Apply of the events those writes logged records the same change, and
// Do keeps no record at all.
func TestWriteRecordsWhatTheTransactionDid(t *testing.T) {
	db, keyed, nokey, derived := recordDB(t)
	at := time.Date(2017, 3, 1, 12, 0, 0, 5, time.UTC)
	row := func(id int64, f float64) []any { return []any{id, f, "alpha", true, at, nil} }
	head := db.Binlog().Last()
	rec, err := db.Write(func() error {
		for _, r := range [][]any{row(1, 1.5), row(2, 2.5)} {
			if err := keyed.InsertRow(r); err != nil {
				return err
			}
		}
		for _, r := range [][]any{row(1, 3.5), row(2, 2.5), row(3, 0)} { // replaces 1; 2 is equal; 3 is new
			if err := keyed.UpsertRow(r); err != nil {
				return err
			}
		}
		keyed.DeleteByKey(int64(2), true)
		if err := nokey.InsertRow(row(7, 7)); err != nil {
			return err
		}
		if err := derived.UpsertRow(row(1, 9)); err != nil {
			return err
		}
		return derived.UpsertRow(row(1, 10))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []boxedTableChange{
		{"modw", "keyed", boxedChange{
			Inserted: [][]any{row(1, 1.5), row(2, 2.5), row(1, 3.5), row(3, 0)},
			Replaced: [][]any{row(1, 1.5), row(2, 2.5)},
		}},
		{"modw", "nokey", boxedChange{Inserted: [][]any{row(7, 7)}}},
	}
	if got := boxed(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("record\n got %+v\nwant %+v", got, want)
	}
	// The positions name the rows in the table's vectors: a replaced
	// row is tombstoned, and the view is the published snapshot.
	if c := rec.Of("modw", "keyed"); !reflect.DeepEqual(c.Inserted, []int{0, 1, 2, 3}) || !reflect.DeepEqual(c.Replaced, []int{0, 1}) ||
		c.Data != keyed.Data() || !c.Data.Tombstones()[0] || !c.Data.Tombstones()[1] {
		t.Fatalf("keyed change %+v names the wrong positions or view", c)
	}
	if got := rec.Of("modw", "derived"); !reflect.DeepEqual(got, Change{}) {
		t.Fatalf("derived table recorded %+v", got)
	}

	// The logged events, applied to a twin, record the same change: the
	// hub's apply path.
	evs, err := db.Binlog().ReadFrom(head, 0)
	if err != nil {
		t.Fatal(err)
	}
	twin, twinKeyed, _, _ := recordDB(t)
	twinHead := twin.Binlog().Last()
	rec, err = twin.Write(func() error {
		_, err := twin.Apply(evs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("Apply of the logged events records\n got %+v\nwant %+v", got, want)
	}
	if got, _ := twin.Binlog().ReadFrom(twinHead, 0); len(got) != len(evs) {
		t.Fatalf("Apply logged %d events, the writes %d", len(got), len(evs))
	}

	// Deleting a row of a table without a primary key records it.
	rec, err = twin.Write(func() error {
		_, err := twin.Apply([]Event{{Kind: EvDelete, Schema: "modw", Table: "nokey", Old: row(7, 7)}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []boxedTableChange{{"modw", "nokey", boxedChange{Replaced: [][]any{row(7, 7)}}}}; !reflect.DeepEqual(boxed(rec), want) {
		t.Fatalf("full-row delete records\n got %+v\nwant %+v", boxed(rec), want)
	}

	// A truncate and a LOAD mark the whole table.
	cd := columnDataOf(keyedDef(), [][]any{row(4, 4)})
	rec, err = twin.Write(func() error {
		if err := twinKeyed.UpsertRow(row(5, 5)); err != nil {
			return err
		}
		twinKeyed.Truncate()
		_, err := twin.Apply([]Event{{Kind: EvLoad, Schema: "modw", Table: "nokey", Cols: cd}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"keyed", "nokey"} {
		if c := rec.Of("modw", table); !c.Whole || len(c.Inserted)+len(c.Replaced) != 0 {
			t.Fatalf("%s: an upsert then a truncate, or a LOAD, records %+v, want only the whole-table mark", table, c)
		}
	}

	// Do is Write without the record: a later Write records only its own.
	if err := twin.Do(func() error { return twinKeyed.InsertRow(row(8, 8)) }); err != nil {
		t.Fatal(err)
	}
	rec, err = twin.Write(func() error { return twinKeyed.InsertRow(row(9, 9)) })
	if err != nil {
		t.Fatal(err)
	}
	if want := []boxedTableChange{{"modw", "keyed", boxedChange{Inserted: [][]any{row(9, 9)}}}}; !reflect.DeepEqual(boxed(rec), want) {
		t.Fatalf("Write after Do records\n got %+v\nwant %+v", boxed(rec), want)
	}
}

// TestIdenticalUpsertWritesNothing: an upsert of a row equal to the
// stored one — floats by bits, times as instants, NULLs alike — writes
// no slot, logs no event and records nothing, through UpsertRow and
// Upsert alike. A float that differs only in its bits (-0 for 0) or a
// time a nanosecond off is a change and is written. An applied UPDATE
// is written as the log says, even when equal: WAL replay logs each
// record again, and its LSNs must stay the WAL's.
func TestIdenticalUpsertWritesNothing(t *testing.T) {
	db, keyed, _, _ := recordDB(t)
	rng := rand.New(rand.NewSource(4))
	rows := randomKeyedRows(rng, 60, 40)
	if err := db.Do(func() error {
		for _, r := range rows {
			if err := keyed.InsertRow(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	head, slots := db.Binlog().Last(), keyed.rows
	var upd []Event
	rec, err := db.Write(func() error {
		for i, r := range rows {
			again := append([]any(nil), r...)
			again[4] = again[4].(time.Time).In(time.FixedZone("elsewhere", 3600)) // the same instant
			if i%2 == 0 {
				if err := keyed.UpsertRow(again); err != nil {
					return err
				}
				continue
			}
			m := map[string]any{}
			for c, col := range keyedDef().Columns {
				m[col.Name] = again[c]
			}
			if err := keyed.Upsert(m); err != nil {
				return err
			}
			upd = append(upd, Event{Kind: EvUpdate, Schema: "modw", Table: "keyed", Row: r})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Binlog().Last(); got != head {
		t.Fatalf("identical upserts logged %d events", got-head)
	}
	if keyed.rows != slots || len(rec) != 0 {
		t.Fatalf("identical upserts wrote %d slots and recorded %+v", keyed.rows-slots, rec)
	}
	rec, err = db.Write(func() error {
		_, err := db.Apply(upd)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Of("modw", "keyed")
	if db.Binlog().Last() != head+uint64(len(upd)) || len(got.Inserted) != len(upd) || len(got.Replaced) != len(upd) {
		t.Fatalf("%d applied identical UPDATEs logged %d events and recorded %d rows replacing %d",
			len(upd), db.Binlog().Last()-head, len(got.Inserted), len(got.Replaced))
	}

	zero := []any{int64(1000), 0.0, nil, false, time.Unix(0, 0).UTC(), nil}
	for _, changed := range [][]any{
		{int64(1000), math.Copysign(0, -1), nil, false, time.Unix(0, 0).UTC(), nil},
		{int64(1000), math.Copysign(0, -1), nil, false, time.Unix(0, 1).UTC(), nil},
	} {
		if err := db.Do(func() error { return keyed.UpsertRow(zero) }); err != nil {
			t.Fatal(err)
		}
		head := db.Binlog().Last()
		rec, err := db.Write(func() error { return keyed.UpsertRow(changed) })
		if err != nil {
			t.Fatal(err)
		}
		if db.Binlog().Last() != head+1 || len(rec.Of("modw", "keyed").Inserted) != 1 {
			t.Fatalf("upsert of %v over %v logged %d events and recorded %+v", changed, zero, db.Binlog().Last()-head, rec)
		}
		zero = changed
	}
}
