package warehouse

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"
	"time"
)

// The gob snapshot formats this build no longer reads. gob matches
// fields by name, so encoding these shapes produces a byte stream
// indistinguishable from one written by the old engines: version 1
// (row-oriented, no Version field) and version 2 (columnar).
type legacyTableSnapshot struct {
	Def  TableDef
	Rows [][]any
}

type legacySchemaSnapshot struct {
	Name   string
	Tables []legacyTableSnapshot
}

type legacySnapshot struct {
	Name    string
	LastLSN uint64
	Schemas []legacySchemaSnapshot
}

type gobTableV2 struct {
	Def  TableDef
	Data *ColumnData
}

type gobSchemaV2 struct {
	Name   string
	Tables []gobTableV2
}

type gobSnapshotV2 struct {
	Version int
	Name    string
	LastLSN uint64
	Schemas []gobSchemaV2
}

func gobStream(t testing.TB, v any) []byte {
	t.Helper()
	gob.Register(time.Time{})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsUnsupportedSnapshotVersion: a hand-rolled v1
// (row-format, unversioned) gob stream, a v2 (columnar) gob stream, a
// stream of a future version, and streams whose header is right but
// whose events are not, all fail the restore with an error naming what
// is wrong — the version where there is one — and the target DB is
// left exactly as it was: no schema created, no row changed, no event
// logged.
func TestRestoreRejectsUnsupportedSnapshotVersion(t *testing.T) {
	legacy := legacySnapshot{
		Name:    "old",
		LastLSN: 41,
		Schemas: []legacySchemaSnapshot{{
			Name: "modw",
			Tables: []legacyTableSnapshot{{
				Def:  allTypesDef(),
				Rows: [][]any{{int64(1), 1.5, "alpha", true, time.Unix(0, 0).UTC(), int64(7)}},
			}},
		}},
	}
	v2 := gobSnapshotV2{Version: 2, Name: "old", LastLSN: 41, Schemas: []gobSchemaV2{{
		Name: "modw",
		Tables: []gobTableV2{{Def: allTypesDef(), Data: &ColumnData{Rows: 1, Names: []string{"id"},
			Cols: []ColumnVector{{Type: TypeInt, Ints: []int64{1}}}}}},
	}}}

	// A current snapshot of modw.t with one row: its header and events
	// are reused below.
	src := Open("src")
	if _, err := src.EnsureSchema("modw").EnsureTable(allTypesDef()); err != nil {
		t.Fatal(err)
	}
	if err := src.InsertRow("modw", "t", []any{int64(1), 1.5, "alpha", true, time.Unix(0, 0).UTC(), int64(7)}); err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := src.Snapshot(&cur); err != nil {
		t.Fatal(err)
	}
	header := func(version uint64) []byte {
		b := binary.AppendUvarint([]byte(snapshotMagic), version)
		b = append(binary.AppendUvarint(b, 3), "src"...)
		return binary.AppendUvarint(b, 9)
	}
	evs, err := src.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's events with a LOAD short of its table's last column.
	_, short := src.SnapshotEvents(nil)
	for i := range short {
		if cd := short[i].Cols; cd != nil {
			cd.Names, cd.Cols = cd.Names[:len(cd.Names)-1], cd.Cols[:len(cd.Cols)-1]
		}
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"v1 row format", gobStream(t, legacy), "snapshots of versions 1 and 2 were gob streams"},
		{"v2 gob columnar", gobStream(t, v2), "snapshots of versions 1 and 2 were gob streams"},
		{"future version", append(header(snapshotVersion+1), cur.Bytes()[len(header(snapshotVersion)):]...), "unsupported snapshot version 4"},
		{"header cut short", cur.Bytes()[:len(snapshotMagic)+2], "snapshot header"},
		{"events cut short", cur.Bytes()[:cur.Len()-1], "decode events"},
		{"a row event", AppendEvents(header(snapshotVersion), evs), "snapshot holds a INSERT event for modw.t"},
		{"a load its table refuses", AppendEvents(header(snapshotVersion), short), `snapshot table modw.t: warehouse: load for table "t" has 5 columns, definition has 6`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open("restored")
			keep := db.EnsureSchema("keep")
			if _, err := keep.EnsureTable(allTypesDef()); err != nil {
				t.Fatal(err)
			}
			if err := db.InsertRow("keep", "t", []any{int64(2), 2.5, nil, false, time.Unix(1, 0).UTC(), nil}); err != nil {
				t.Fatal(err)
			}
			before := db.Binlog().Last()
			_, err := restore(db, bytes.NewReader(tc.stream))
			if err == nil || !strings.HasPrefix(err.Error(), "warehouse: restore: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error = %v, want one naming %q", err, tc.want)
			}
			if _, err := db.TableIn("modw", "t"); err == nil {
				t.Error("rejected restore created modw.t")
			}
			if n := db.Count("keep", "t"); n != 1 {
				t.Errorf("rejected restore left keep.t with %d rows, want 1", n)
			}
			if last := db.Binlog().Last(); last != before {
				t.Errorf("rejected restore logged events (binlog at %d, was %d)", last, before)
			}
		})
	}
}

// TestRowsChunkCoercesStrictly pins the one boxed-rows → columns
// converter: values land in typed vectors with NULLs in the validity
// vector and integers widened into float columns, and a row the table
// could not have stored — wrong arity, a mistyped cell, a NULL in a
// non-nullable column — is an error naming the row, never a zeroed
// value.
func TestRowsChunkCoercesStrictly(t *testing.T) {
	db := Open("chunk")
	tab, err := db.EnsureSchema("modw").EnsureTable(allTypesDef())
	if err != nil {
		t.Fatal(err)
	}
	ts1 := time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)
	ts2 := time.Date(2017, 3, 2, 8, 30, 0, 0, time.FixedZone("EST", -5*3600))
	ch, err := tab.RowsChunk([][]any{
		{int64(1), 1.5, "alpha", true, ts1, int64(7)},
		{int64(2), int64(-2), nil, false, ts2, nil}, // int cell in a float column, two NULLs
	})
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		i, ok := ch.ColIndex(name)
		if !ok {
			t.Fatalf("chunk has no column %q", name)
		}
		return i
	}
	if ch.Rows() != 2 || len(ch.Tombstones()) != 2 || ch.Tombstones()[0] || ch.Tombstones()[1] {
		t.Fatalf("chunk has %d rows, tombstones %v; want 2 live rows", ch.Rows(), ch.Tombstones())
	}
	if got := ch.IntCol(col("id")); got[0] != 1 || got[1] != 2 {
		t.Errorf("id = %v", got)
	}
	if got := ch.FloatCol(col("f")); got[0] != 1.5 || got[1] != -2 {
		t.Errorf("f = %v, want [1.5 -2] (int widened)", got)
	}
	if got, nulls := ch.StringCol(col("s")), ch.NullCol(col("s")); got.At(0) != "alpha" || nulls[0] || !nulls[1] {
		t.Errorf("s = %v nulls %v", got, nulls)
	}
	if got := ch.BoolCol(col("b")); !got[0] || got[1] {
		t.Errorf("b = %v", got)
	}
	if got := ch.TimeCol(col("ts")); !got.At(0).Equal(ts1) || !got.At(1).Equal(ts2) || got.At(1).Location() != time.UTC {
		t.Errorf("ts = %v, want UTC-normalized %v %v", got, ts1, ts2)
	}
	if got, nulls := ch.IntCol(col("n")), ch.NullCol(col("n")); got[0] != 7 || nulls[0] || !nulls[1] {
		t.Errorf("n = %v nulls %v", got, nulls)
	}
	if tab.Len() != 0 {
		t.Errorf("RowsChunk stored %d rows in the table", tab.Len())
	}

	good := []any{int64(1), 1.5, "alpha", true, ts1, nil}
	for _, tc := range []struct {
		name string
		bad  []any
		want string
	}{
		{"wrong arity", []any{int64(1), 1.5}, "expects 6 values, got 2"},
		{"mistyped cell", []any{int64(1), "not-a-float", "alpha", true, ts1, nil}, `column "f" (DOUBLE) cannot hold string value`},
		{"mistyped time", []any{int64(1), 1.5, "alpha", true, "2017-03-01", nil}, `column "ts" (DATETIME) cannot hold string value`},
		{"null in non-nullable", []any{nil, 1.5, "alpha", true, ts1, nil}, `column "id" is not nullable`},
	} {
		_, err := tab.RowsChunk([][]any{good, tc.bad})
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "row 1: ") {
			t.Errorf("%s: error = %v, want row 1 and %q", tc.name, err, tc.want)
		}
	}
}
