package warehouse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// stringDicts returns column col's dictionary in each chunk of tab's
// published snapshot.
func stringDicts(t *testing.T, tab *Table, col string) [][]string {
	t.Helper()
	ci, ok := tab.lay.colIndex[col]
	if !ok {
		t.Fatalf("no column %q", col)
	}
	return [][]string{tab.Data().StringCol(ci).Dict}
}

// TestOutOfRangeTimesAreRefused: a time column stores Unix nanoseconds,
// and a key renders them, so a time they cannot hold (before 1678 or
// after 2262, where two times could render the same key) is refused
// wherever a time enters a vector — an insert, a rows→chunk conversion
// and a decoded LOAD — with an error naming the column.
func TestOutOfRangeTimesAreRefused(t *testing.T) {
	early, late := time.Date(1677, 9, 21, 0, 0, 0, 0, time.UTC), time.Date(2262, 4, 12, 0, 0, 0, 0, time.UTC)
	edge := time.Unix(0, -1<<63).UTC()
	db := Open("range")
	tab, err := db.EnsureSchema("modw").EnsureTable(allTypesDef())
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64, ts time.Time) []any { return []any{id, 1.5, "alpha", true, ts, nil} }
	for _, ts := range []time.Time{early, late, {}} {
		err := db.InsertRow("modw", "t", row(1, ts))
		if err == nil || !strings.Contains(err.Error(), `column "ts"`) || !strings.Contains(err.Error(), "outside the years 1678 to 2262") {
			t.Errorf("insert of %v: err = %v, want a refusal naming column ts", ts, err)
		}
		_, err = tab.RowsChunk([][]any{row(1, edge), row(2, ts)})
		if err == nil || !strings.Contains(err.Error(), "row 1:") || !strings.Contains(err.Error(), `column "ts"`) {
			t.Errorf("rows chunk with %v: err = %v, want a refusal naming row 1 and column ts", ts, err)
		}
	}
	if db.Count("modw", "t") != 0 {
		t.Fatal("a refused insert left a row")
	}
	if err := db.InsertRow("modw", "t", row(1, edge)); err != nil {
		t.Fatalf("the earliest time a column holds is refused: %v", err)
	}

	// A LOAD whose time cell lies beyond the range: encode one holding a
	// marker time, then put an out-of-range time in the marker's place.
	marker := time.Unix(7, 0)
	cd := &ColumnData{Rows: 1, Names: []string{"id", "f", "s", "b", "ts", "n"}, Cols: []ColumnVector{
		store.ColumnOf([]int64{1}), store.ColumnOf([]float64{1.5}), store.ColumnOf([]string{"alpha"}),
		store.ColumnOf([]bool{true}), store.ColumnOf([]time.Time{marker}), store.ColumnOf([]int64{7}),
	}}
	b := AppendEvents(nil, []Event{{LSN: 1, Kind: EvLoad, Schema: "modw", Table: "t", Cols: cd}})
	cell := binary.AppendUvarint(binary.AppendVarint([]byte{cellTime}, marker.Unix()), 0)
	if bytes.Count(b, cell) != 1 {
		t.Fatal("the marker cell is not in the encoding exactly once")
	}
	for _, ts := range []time.Time{early, late} {
		far := binary.AppendUvarint(binary.AppendVarint([]byte{cellTime}, ts.Unix()), 0)
		_, err := DecodeEvents(bytes.Replace(b, cell, far, 1))
		if err == nil || !strings.Contains(err.Error(), `column "ts"`) || !strings.Contains(err.Error(), "outside the years 1678 to 2262") {
			t.Errorf("LOAD holding %v: err = %v, want a refusal naming column ts", ts, err)
		}
	}
	if _, err := DecodeEvents(b); err != nil {
		t.Fatalf("the unedited LOAD does not decode: %v", err)
	}
}

// TestTruncateAndCompactionStartLiveDictionaries: a dictionary only
// grows while its table does, but a truncate and a compaction each
// start the table on a dictionary that holds only live values.
func TestTruncateAndCompactionStartLiveDictionaries(t *testing.T) {
	db := Open("dict")
	tab, err := db.EnsureSchema("modw").EnsureTable(allTypesDef())
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0).UTC()
	insert := func(from, to int, s func(i int) string) {
		t.Helper()
		if err := db.Do(func() error {
			for i := from; i < to; i++ {
				if err := tab.InsertRow([]any{int64(i), 0.5, s(i), true, ts, nil}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 3, func(i int) string { return fmt.Sprintf("before-%d", i) })
	if err := db.Do(func() error { tab.Truncate(); return nil }); err != nil {
		t.Fatal(err)
	}
	insert(0, 2, func(int) string { return "after" })
	if got := stringDicts(t, tab, "s"); len(got) != 1 || !slices.Equal(got[0], []string{"after"}) {
		t.Errorf("after a truncate the dictionaries are %q, want one holding only \"after\"", got)
	}

	// 600 distinct values, of which the first 500 die: the deletes cross
	// compactMinDead and half the rows, so the commit compacts.
	insert(2, 602, func(i int) string { return fmt.Sprintf("v%d", i) })
	if err := db.Do(func() error {
		for i := 2; i < 502; i++ {
			tab.DeleteByKey(int64(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"after"}
	for i := 502; i < 602; i++ {
		want = append(want, fmt.Sprintf("v%d", i))
	}
	if got := stringDicts(t, tab, "s"); len(got) != 1 || !slices.Equal(got[0], want) {
		t.Errorf("after a compaction the dictionaries hold %d, %d… values, want one of the %d live ones", len(got), len(got[0]), len(want))
	}
}

// TestAdoptedDictionaryLeavesPayloadUnchanged: a table that adopts a
// bulk load's dictionary must not append into it — the payload (and
// whatever else holds it: a binlog event, another table) keeps reading
// exactly what it held, spare capacity included.
func TestAdoptedDictionaryLeavesPayloadUnchanged(t *testing.T) {
	db := Open("adopt")
	s := db.EnsureSchema("modw")
	tab, err := s.EnsureTable(allTypesDef())
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0).UTC()
	cd := columnDataOf(allTypesDef(), [][]any{
		{int64(1), 1.5, "alpha", true, ts, nil},
		{int64(2), 2.5, "beta", false, ts, int64(3)},
	})
	strs := &cd.Cols[2]
	strs.Dict = append(make([]string, 0, 8), strs.Dict...) // room an append could write into
	before := slices.Clone(strs.Dict[:cap(strs.Dict)])
	codes := slices.Clone(strs.Codes)
	if err := db.Do(func() error { return tab.ReplaceAllColumns(cd) }); err != nil {
		t.Fatal(err)
	}
	// A second table adopts the same payload, as a replica applying the
	// logged LOAD does.
	other, err := s.EnsureTable(func() TableDef { d := allTypesDef(); d.Name = "u"; return d }())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func() error { return other.ReplaceAllColumns(cd) }); err != nil {
		t.Fatal(err)
	}
	for i, tb := range []*Table{tab, other} {
		if err := db.Do(func() error {
			for j := 0; j < 5; j++ {
				if err := tb.InsertRow([]any{int64(10 + j), 0.0, fmt.Sprintf("new-%d-%d", i, j), true, ts, nil}); err != nil {
					return err
				}
			}
			return tb.UpsertRow([]any{int64(1), 9.5, fmt.Sprintf("replaced-%d", i), true, ts, nil})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(strs.Dict[:cap(strs.Dict)], before) || !slices.Equal(strs.Codes, codes) {
		t.Errorf("appends to the adopting tables wrote into the payload: dictionary %q, want %q", strs.Dict[:cap(strs.Dict)], before)
	}
	for i, tb := range []*Table{tab, other} {
		if r, ok := tb.GetByKey(int64(2)); !ok || r.String("s") != "beta" {
			t.Errorf("table %d lost an adopted row: %v", i, r.Values())
		}
		if r, ok := tb.GetByKey(int64(14)); !ok || r.String("s") != fmt.Sprintf("new-%d-4", i) {
			t.Errorf("table %d reads its own insert wrong: %v", i, r.Values())
		}
	}

	// A dictionary holding a value twice would let a filter resolve the
	// value to one code and miss the other: adopting it is refused.
	dup := columnDataOf(allTypesDef(), [][]any{{int64(1), 1.5, "alpha", true, ts, nil}})
	dup.Cols[2].Dict = []string{"alpha", "alpha"}
	err = db.Do(func() error { return tab.ReplaceAllColumns(dup) })
	if err == nil || !strings.Contains(err.Error(), `dictionary holds "alpha" twice`) {
		t.Errorf("adopting a dictionary with a repeated value: err = %v", err)
	}
}

// TestAdoptedVectorsHaveOneWriter: the vectors of a bulk load can be
// held by more than one table at once — a table's ColumnData export
// adopted by other DBs, or one in-memory LOAD event applied to several —
// and by the payload itself. Every adopter clips them, so its first
// append reallocates: after each holder appends and upserts rows of its
// own, it reads only those, and the logged event still encodes as it
// did.
func TestAdoptedVectorsHaveOneWriter(t *testing.T) {
	ts := time.Unix(0, 0).UTC()
	row := func(id int64, f float64, s string) []any { return []any{id, f, s, id%2 == 0, ts, id} }
	open := func(name string) (*DB, *Table) {
		db := Open(name)
		tab, err := db.EnsureSchema("modw").EnsureTable(allTypesDef())
		if err != nil {
			t.Fatal(err)
		}
		return db, tab
	}
	// A table grown by appends holds vectors with room beyond their rows.
	srcDB, src := open("src")
	var stored [][]any
	for id := int64(1); id <= 5; id++ {
		stored = append(stored, row(id, float64(id)+0.5, fmt.Sprintf("v%d", id)))
	}
	if err := srcDB.Do(func() error {
		for _, r := range stored {
			if err := src.InsertRow(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	export := src.Data().ColumnData()
	if f := export.Cols[1].Floats; cap(f) == len(f) {
		t.Fatal("the export has no room beyond its rows, so no append could write into it")
	}

	type holder struct {
		db  *DB
		tab *Table
	}
	holders := []holder{{srcDB, src}}
	for _, name := range []string{"a", "b"} {
		db, tab := open(name)
		if err := db.Do(func() error { return tab.ReplaceAllColumns(export) }); err != nil {
			t.Fatal(err)
		}
		holders = append(holders, holder{db, tab})
	}
	// The same vectors, logged as a LOAD by a DB that adopts them, then
	// applied from its in-memory binlog to two more DBs.
	logDB, logTab := open("log")
	if err := logDB.Do(func() error { return logTab.ReplaceAllColumns(src.Data().ColumnData()) }); err != nil {
		t.Fatal(err)
	}
	holders = append(holders, holder{logDB, logTab})
	evs, err := logDB.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	logged := AppendEvents(nil, evs)
	for _, name := range []string{"c", "d"} {
		db := Open(name)
		if _, err := db.ApplyAll(evs); err != nil {
			t.Fatal(err)
		}
		tab, err := db.TableIn("modw", "t")
		if err != nil {
			t.Fatal(err)
		}
		holders = append(holders, holder{db, tab})
	}

	mine := func(i int) [][]any { // what holder i writes: a new key, then a replaced one
		return [][]any{row(100, 100+float64(i), fmt.Sprintf("new-%d", i)), row(1, 200+float64(i), fmt.Sprintf("replaced-%d", i))}
	}
	for i, h := range holders {
		if err := h.db.Do(func() error {
			for _, r := range mine(i) {
				if err := h.tab.UpsertRow(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range holders {
		want := append(slices.Clone(stored[1:]), mine(i)...)
		if got := snapshotRows(h.tab.Data()); !slices.EqualFunc(got, want, sameValues) {
			t.Errorf("holder %d reads %v, want %v", i, got, want)
		}
	}
	if !bytes.Equal(AppendEvents(nil, evs), logged) {
		t.Error("appends to the adopting tables changed the logged LOAD event")
	}
}

// TestDictionaryGrowsUnderConcurrentReaders: lock-free snapshot readers
// resolve every cell of every snapshot while the writer keeps adding
// new distinct strings — across appends, which share the dictionary
// between published snapshots and the table, and compactions, which
// replace it. Every cell must resolve to the value written with its
// row, and the race detector must see no conflicting access.
func TestDictionaryGrowsUnderConcurrentReaders(t *testing.T) {
	db := OpenOptions("grow", Options{})
	tab, err := db.EnsureSchema("modw").EnsureTable(allTypesDef())
	if err != nil {
		t.Fatal(err)
	}
	ids := tab.lay.colIndex["id"]
	strs := tab.lay.colIndex["s"]
	value := func(id int64) string { return fmt.Sprintf("value-%d", id) }
	// Each reader checks whole snapshots until the writer is done, then
	// one more; the writer waits for a reader's pass every few batches,
	// so the two overlap however the goroutines are scheduled.
	var done atomic.Bool
	var wg sync.WaitGroup
	var passes atomic.Int64
	errs := make(chan error, 2) // one per reader: each sends its first error only
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for {
				last := done.Load()
				ch := tab.Data()
				id, s, dead := ch.IntCol(ids), ch.StringCol(strs), ch.Tombstones()
				for pos := 0; pos < ch.Rows(); pos++ {
					if got := s.At(pos); !dead[pos] && got != value(id[pos]) && !failed {
						errs <- fmt.Errorf("row %d reads %q", id[pos], got)
						failed = true
					}
				}
				passes.Add(1)
				if last {
					return
				}
			}
		}()
	}
	ts := time.Unix(0, 0).UTC()
	const batches, perBatch = 60, 25
	for b := 0; b < batches; b++ {
		if err := db.Do(func() error {
			for i := 0; i < perBatch; i++ {
				id := int64(b*perBatch + i)
				if err := tab.InsertRow([]any{id, 0.5, value(id), true, ts, nil}); err != nil {
					return err
				}
			}
			if b%10 == 9 { // delete most rows so far: the commit compacts
				for id := int64(0); id < int64(b*perBatch); id++ {
					if id%4 != 0 {
						tab.DeleteByKey(id)
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if b%5 == 4 {
			for p := passes.Load(); passes.Load() == p; {
				runtime.Gosched()
			}
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
