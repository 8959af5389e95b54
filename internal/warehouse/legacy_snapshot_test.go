package warehouse

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"
)

// The pre-columnar snapshot format: no Version field, no columnar
// payload — each table carries boxed row slices. gob matches fields by
// name, so encoding these shapes produces a byte stream
// indistinguishable from one written by the old row-oriented engine.
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

// TestRestoreRejectsUnsupportedSnapshotVersion: a hand-rolled v1
// (row-format, unversioned) stream and a stream from a future version
// both fail the restore with an error naming the version, and the
// target DB is left exactly as it was — no schema created, no event
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
	future := snapshot{Version: snapshotVersion + 1, Name: "new",
		Schemas: []schemaSnapshot{{Name: "modw"}}}
	for _, tc := range []struct {
		name   string
		stream any
		want   string
	}{
		{"v1 row format", legacy, "warehouse: restore: unsupported snapshot version 0"},
		{"future version", future, "warehouse: restore: unsupported snapshot version 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tc.stream); err != nil {
				t.Fatalf("encode stream: %v", err)
			}
			db := Open("restored")
			_, err := db.Restore(&buf)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Restore error = %v, want %q", err, tc.want)
			}
			if _, err := db.TableIn("modw", "t"); err == nil {
				t.Error("rejected restore created modw.t")
			}
			if last := db.Binlog().Last(); last != 0 {
				t.Errorf("rejected restore logged events (binlog at %d)", last)
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
	if got, nulls := ch.StringCol(col("s")), ch.NullCol(col("s")); got[0] != "alpha" || nulls[0] || !nulls[1] {
		t.Errorf("s = %v nulls %v", got, nulls)
	}
	if got := ch.BoolCol(col("b")); !got[0] || got[1] {
		t.Errorf("b = %v", got)
	}
	if got := ch.TimeCol(col("ts")); !got[0].Equal(ts1) || !got[1].Equal(ts2) || got[1].Location() != time.UTC {
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
