package warehouse

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// codecBytes assembles a hand-written event buffer from bytes, event
// kinds, column types, flag sets and strings (written length-prefixed).
func codecBytes(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch x := p.(type) {
		case byte:
			b = append(b, x)
		case []byte:
			b = append(b, x...)
		case int:
			b = append(b, byte(x))
		case EventKind:
			b = append(b, byte(x))
		case ColumnType:
			b = append(b, byte(x))
		case string:
			b = appendString(b, x)
		}
	}
	return b
}

// Pieces of the hand-written buffers below. Each buffer opens with
// createS, a CREATE_SCHEMA of s at LSN 1, so a decoder that took part
// of it would create s; insertInto(t) is the header of an INSERT into
// s.t at the next LSN and the same commit time, and nextInsert that of
// one more INSERT into the previous event's table.
var createS = codecBytes(EvCreateSchema, evNextLSN, "s", "", 0, 0)

func insertInto(table string) []byte {
	return codecBytes(EvInsert, evNextLSN|evHasRow, "s", table, 0, 0)
}

var nextInsert = codecBytes(EvInsert, evSameTable|evNextLSN|evHasRow, 0, 0)

// loadInto is the header of a LOAD of s.t at the next LSN, naming the
// table unless the previous event's was s.t.
func loadInto(named bool) []byte {
	if named {
		return codecBytes(EvLoad, evNextLSN|evHasCols, "s", "t", 0, 0)
	}
	return codecBytes(EvLoad, evSameTable|evNextLSN|evHasCols, 0, 0)
}

// badStringRefs returns buffers that are well formed but for one
// cellStringRef that names no string, one for each way a reference can
// miss, with what the decoder's error says.
func badStringRefs() map[string]struct {
	buf  []byte
	want string
} {
	ab := codecBytes(cellString, "ab")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	type bad = struct {
		buf  []byte
		want string
	}
	return map[string]bad{
		"a reference before its column spelled anything": {
			cat([]byte{2}, createS, insertInto("t"), []byte{1, cellStringRef, 0}),
			"cell 0 refers to string 0 of its column, but s.t has spelled 0 there"},
		"an index one past the column's strings": {
			cat([]byte{3}, createS, insertInto("t"), []byte{1}, ab, nextInsert, []byte{1, cellStringRef, 1}),
			"cell 0 refers to string 1 of its column, but s.t has spelled 1 there"},
		"a reference across a change of table": {
			cat([]byte{4}, createS, insertInto("t"), []byte{1}, ab, insertInto("u"), []byte{1, cellNull},
				insertInto("t"), []byte{1, cellStringRef, 0}),
			"cell 0 refers to string 0 of its column, but s.t has spelled 0 there"},
		"a reference to a string another column spelled": {
			cat([]byte{3}, createS, insertInto("t"), []byte{2}, ab, codecBytes(cellInt, 4), nextInsert, []byte{2, cellSame, cellStringRef, 0}),
			"cell 1 refers to string 0 of its column, but s.t has spelled 0 there"},
		"a LOAD vector's reference to a string a row spelled": {
			cat([]byte{3}, createS, insertInto("t"), []byte{1}, ab, loadInto(false), codecBytes(1, 1, "a", TypeString, 0, cellStringRef, 0)),
			`cell 0 of column "a" refers to string 0 of the column, which has spelled 0`},
		"a LOAD vector's reference to a string the vector before it spelled": {
			cat([]byte{2}, createS, loadInto(true), codecBytes(1, 2, "a", TypeString, 0), ab, codecBytes("b", TypeString, 0, cellStringRef, 0)),
			`cell 0 of column "b" refers to string 0 of the column, which has spelled 0`},
		"a reference in a LOAD vector of ints": {
			cat([]byte{2}, createS, loadInto(true), codecBytes(2, 1, "a", TypeInt, 0, cellInt, 4, cellStringRef, 0)),
			`cell 1 of column "a" refers to a string in a BIGINT vector`},
	}
}

// BadStringRefs returns the buffers of badStringRefs, for the fuzz
// seeds of the external tests.
func BadStringRefs() [][]byte {
	var out [][]byte
	for _, c := range badStringRefs() {
		out = append(out, c.buf)
	}
	return out
}

// SnapshotOf returns a snapshot whose events are the buffer b.
func SnapshotOf(b []byte) []byte {
	return append(codecBytes([]byte(snapshotMagic), byte(snapshotVersion), "x", 0), b...)
}

// TestStringRefsDecode pins cellStringRef (tag 9) by a hand-written
// buffer: rows of s.t and a LOAD of it that refer back to the strings
// spelled before them. It decodes to the strings named, sharing their
// first spelling's bytes, and this build codes the decoded events as
// the same bytes.
func TestStringRefsDecode(t *testing.T) {
	if cellStringRef != 9 {
		t.Fatalf("cellStringRef is %d, want 9", cellStringRef)
	}
	good := bytes.Join([][]byte{{5}, createS,
		insertInto("t"), codecBytes(2, cellString, "ab", cellString, "x"),
		nextInsert, codecBytes(2, cellString, "cd", cellSame),
		nextInsert, codecBytes(2, cellStringRef, 0, cellSame),
		loadInto(false), codecBytes(3, 1, "a", TypeString, 0, cellString, "ab", cellString, "cd", cellStringRef, 0),
	}, nil)
	evs, err := DecodeEvents(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("decoded %d events, want 5", len(evs))
	}
	for i, want := range [][]any{{"ab", "x"}, {"cd", "x"}, {"ab", "x"}} {
		if row := evs[i+1].Row; len(row) != 2 || row[0] != want[0] || row[1] != want[1] {
			t.Fatalf("row %d decoded as %v, want %v", i, row, want)
		}
	}
	first, third := evs[1].Row[0].(string), evs[3].Row[0].(string)
	if unsafe.StringData(first) != unsafe.StringData(third) {
		t.Error("the reference's string does not share the bytes of the spelling it names")
	}
	if v := evs[4].Cols.Cols[0]; len(v.Codes) != 3 || v.Value(0) != "ab" || v.Value(1) != "cd" || v.Value(2) != "ab" {
		t.Fatalf("LOAD vector decoded as %+v", v)
	}
	if got := AppendEvents(nil, evs); !bytes.Equal(got, good) {
		t.Fatalf("recoded as % x\nwant       % x", got, good)
	}
	if _, err := DecodeEvents(codecBytes(1, EvInsert, evNextLSN|evHasRow, "s", "t", 0, 0, 1, 10)); err == nil ||
		!strings.Contains(err.Error(), "unknown cell tag 10") {
		t.Fatalf("cell tag 10 decoded (%v), want unknown cell tag 10", err)
	}
}

// TestDecodeEventsRefusesBadStringRefs: a reference that names no
// string its column spelled is an error naming the cell, wherever the
// buffer arrives: decoded alone, replayed from a WAL record, restored
// from a snapshot. Nothing of the buffer is applied, not even the
// CREATE_SCHEMA ahead of the reference.
func TestDecodeEventsRefusesBadStringRefs(t *testing.T) {
	for name, c := range badStringRefs() {
		t.Run(name, func(t *testing.T) {
			if evs, err := DecodeEvents(c.buf); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("decoded to %+v, %v; want an error saying %q", evs, err, c.want)
			}
			path := filepath.Join(t.TempDir(), "binlog.wal")
			wal := walRecord(append([]byte{walBinary}, c.buf...))
			if err := os.WriteFile(path, wal, 0o644); err != nil {
				t.Fatal(err)
			}
			db := Open("replayed")
			if _, err := ReplayLog(db, path); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("replay: %v; want an error saying %q", err, c.want)
			}
			if s := db.Schemas(); len(s) != 0 {
				t.Fatalf("replay created schemas %v", s)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, wal) {
				t.Fatal("the refused replay changed the WAL")
			}
			if _, evs, err := ReadSnapshot(bytes.NewReader(SnapshotOf(c.buf))); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("restore read %+v, %v; want an error saying %q", evs, err, c.want)
			}
		})
	}
}
