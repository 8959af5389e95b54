package warehouse

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestStringers(t *testing.T) {
	for v, want := range map[ColumnType]string{
		TypeInt: "BIGINT", TypeFloat: "DOUBLE", TypeString: "VARCHAR",
		TypeBool: "BOOLEAN", TypeTime: "DATETIME", ColumnType(42): "ColumnType(42)",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q", v, got)
		}
	}
	for v, want := range map[EventKind]string{
		EvInsert: "INSERT", EvUpdate: "UPDATE", EvDelete: "DELETE",
		EvTruncate: "TRUNCATE", EvCreateSchema: "CREATE_SCHEMA",
		EvCreateTable: "CREATE_TABLE", EvDropSchema: "DROP_SCHEMA",
		EventKind(42): "EventKind(42)",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q", v, got)
		}
	}
	for v, want := range map[AggFunc]string{
		AggSum: "SUM", AggCount: "COUNT", AggAvg: "AVG",
		AggMax: "MAX", AggSumLast: "SUM_LAST", AggFunc(42): "AggFunc(42)",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q", v, got)
		}
	}
}

func TestAccessors(t *testing.T) {
	db := Open("mydb")
	if db.Name() != "mydb" {
		t.Errorf("db name = %q", db.Name())
	}
	tab := mustTable(t, db, "s1")
	mustTable(t, db, "s2")
	if got := db.Schemas(); len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Errorf("schemas = %v", got)
	}
	s := db.Schema("s1")
	if s.Name() != "s1" {
		t.Errorf("schema name = %q", s.Name())
	}
	if got := s.Tables(); len(got) != 1 || got[0] != "jobs" {
		t.Errorf("tables = %v", got)
	}
	if s.Table("jobs") != tab {
		t.Error("Table lookup wrong")
	}
	if s.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
	if tab.Name() != "jobs" {
		t.Errorf("table name = %q", tab.Name())
	}
	def := tab.Def()
	if def.Name != "jobs" || len(def.Columns) != 6 {
		t.Errorf("def = %+v", def)
	}
	cols := tab.Columns()
	if len(cols) != 6 || cols[0] != "job_id" {
		t.Errorf("columns = %v", cols)
	}
	// EnsureTable returns the existing table.
	again, err := s.EnsureTable(jobsDef())
	if err != nil || again != tab {
		t.Errorf("EnsureTable: %v %v", again, err)
	}
}

func TestTruncateIsLogged(t *testing.T) {
	db := Open("t")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		for _, id := range []int{3, 1, 2} {
			tab.Insert(map[string]any{"job_id": id, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}
		return nil
	})
	db.Do(func() error {
		tab.Truncate()
		return nil
	})
	if tab.Len() != 0 {
		t.Errorf("len after truncate = %d", tab.Len())
	}
	// Truncate is logged and replicable.
	evs, _ := db.Binlog().ReadFrom(0, 0)
	found := false
	for _, e := range evs {
		if e.Kind == EvTruncate {
			found = true
		}
	}
	if !found {
		t.Error("truncate not in binlog")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := Open("t")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		return tab.Insert(map[string]any{"job_id": 1, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
	})
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dst := Open("d")
	if _, err := dst.Restore(f); err != nil {
		t.Fatal(err)
	}
	if dst.Count("s", "jobs") != 1 {
		t.Error("load file lost rows")
	}
	if err := db.SaveFile("/nonexistent-dir/x.snap"); err == nil {
		t.Error("bad save path accepted")
	}
}

// TestSaveFileNeverRewritesThePreviousFile: SaveFile replaces the file
// at path whole or not at all. The previous snapshot is never truncated
// or written in place — a reader that opened it before the save still
// reads it byte for byte afterwards, which is what a crash mid-save
// leaves at path — and a save that fails leaves neither a changed file
// nor a temporary one behind.
func TestSaveFileNeverRewritesThePreviousFile(t *testing.T) {
	db := Open("t")
	tab := mustTable(t, db, "s")
	insert := func(id int) {
		t.Helper()
		if err := db.Do(func() error {
			return tab.Insert(map[string]any{"job_id": id, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert(1)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	insert(2)
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(held); !bytes.Equal(got, old) {
		t.Errorf("the previous snapshot was rewritten in place: a reader that opened it holds %d bytes, it had %d", len(got), len(old))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dst := Open("d")
	if _, err := dst.Restore(f); err != nil || dst.Count("s", "jobs") != 2 {
		t.Errorf("the new snapshot restores %d rows (%v), want 2", dst.Count("s", "jobs"), err)
	}

	// A save that cannot land (path is a directory) fails and cleans up.
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(sub); err == nil {
		t.Error("saving over a directory succeeded")
	}
	var names []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"db.snap", "sub"}) {
		t.Errorf("after a failed save the directory holds %v, want [db.snap sub]", names)
	}
	info, err := os.Stat(path)
	if err != nil || info.Mode().Perm() != 0o644 {
		t.Errorf("saved file mode = %v (%v), want 0644", info.Mode(), err)
	}
}

func TestCoerceVariants(t *testing.T) {
	intCol := Column{Name: "i", Type: TypeInt}
	floatCol := Column{Name: "f", Type: TypeFloat}
	cases := []struct {
		col  Column
		in   any
		want any
	}{
		{intCol, int32(5), int64(5)},
		{intCol, uint64(5), int64(5)},
		{intCol, float64(5), int64(5)},
		{floatCol, float32(2), float64(2)},
		{floatCol, int(2), float64(2)},
		{floatCol, int64(2), float64(2)},
	}
	for _, c := range cases {
		got, err := coerce(c.col, c.in)
		if err != nil || got != c.want {
			t.Errorf("coerce(%T %v) = %v, %v", c.in, c.in, got, err)
		}
	}
	if _, err := coerce(intCol, "x"); err == nil {
		t.Error("string into int accepted")
	}
	if _, err := coerce(Column{Name: "b", Type: TypeBool}, 1); err == nil {
		t.Error("int into bool accepted")
	}
	// Times normalize to UTC.
	est := time.FixedZone("EST", -5*3600)
	v, err := coerce(Column{Name: "t", Type: TypeTime}, time.Date(2017, 1, 1, 0, 0, 0, 0, est))
	if err != nil {
		t.Fatal(err)
	}
	if v.(time.Time).Location() != time.UTC {
		t.Error("time not normalized to UTC")
	}
}

func TestEncodeKeyPartVariants(t *testing.T) {
	if encodeKeyPart(nil) != "\x00" {
		t.Error("nil encoding wrong")
	}
	if encodeKeyPart(true) != "1" || encodeKeyPart(false) != "0" {
		t.Error("bool encoding wrong")
	}
	ts := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	if encodeKeyPart(ts) == "" {
		t.Error("time encoding empty")
	}
	if encodeKeyPart(2.5) != "2.5" {
		t.Errorf("float encoding = %q", encodeKeyPart(2.5))
	}
	type odd struct{ X int }
	if encodeKeyPart(odd{1}) == "" {
		t.Error("fallback encoding empty")
	}
}

func TestRowAccessorEdgeCases(t *testing.T) {
	db := Open("t")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		return tab.Insert(map[string]any{"job_id": 1, "user": "u", "resource": "r", "cores": 2, "wall": 1.5})
	})
	db.View(func() error {
		r, _ := tab.GetByKey(int64(1))
		if r.Int("user") != 0 { // wrong-typed access returns zero
			t.Error("Int on string column should be 0")
		}
		if r.Float("cores") != 2 { // int widens
			t.Error("Float on int column should widen")
		}
		if r.String("cores") != "" {
			t.Error("String on int column should be empty")
		}
		if r.Get("missing") != nil {
			t.Error("missing column should be nil")
		}
		if _, ok := r.Lookup("missing"); ok {
			t.Error("missing column lookup should report !ok")
		}
		return nil
	})
}

func TestApplyUnknownKind(t *testing.T) {
	db := Open("t")
	mustTable(t, db, "s")
	if err := applyOne(db, Event{Kind: EventKind(99), Schema: "s", Table: "jobs"}); err == nil {
		t.Error("unknown event kind accepted")
	}
	if err := applyOne(db, Event{Kind: EvInsert, Schema: "nope", Table: "jobs"}); err == nil {
		t.Error("apply to missing schema accepted")
	}
	if err := applyOne(db, Event{Kind: EvCreateTable, Schema: "s", Table: "t2"}); err == nil {
		t.Error("CREATE_TABLE without def accepted")
	}
	// Apply DROP_SCHEMA then re-create.
	if err := applyOne(db, Event{Kind: EvDropSchema, Schema: "s"}); err != nil {
		t.Fatal(err)
	}
	if db.Schema("s") != nil {
		t.Error("schema survived applied drop")
	}
}

// TestDerivedTableLogsNothing: a derived table's DDL and every kind of
// mutation stay out of the binlog of a DB that logs, and the mark
// survives a snapshot round trip.
func TestDerivedTableLogsNothing(t *testing.T) {
	db := Open("test")
	def := jobsDef()
	def.Name, def.Derived = "jobs_by_day", true
	tab, err := db.EnsureSchema("s").EnsureTable(def)
	if err != nil {
		t.Fatal(err)
	}
	head := db.Binlog().Last()
	mutate := func(db *DB, tab *Table) {
		t.Helper()
		row := map[string]any{"job_id": 1, "user": "u", "resource": "a", "cores": 1, "wall": 1.0}
		if err := db.Do(func() error {
			if err := tab.Insert(row); err != nil {
				return err
			}
			row["cores"] = 2
			if err := tab.Upsert(row); err != nil {
				return err
			}
			if err := updateCols(tab, int64(1), map[string]any{"resource": "b"}); err != nil {
				return err
			}
			if !tab.DeleteByKey(int64(1)) {
				t.Error("row to delete not found")
			}
			tab.Truncate()
			return tab.ReplaceAllColumns(tab.Data().ColumnData())
		}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(db, tab)
	if got := db.Binlog().Last(); got != head {
		evs, _ := db.Binlog().ReadFrom(head, 0)
		t.Fatalf("derived table logged %d events: %+v", got-head, evs)
	}

	var snap bytes.Buffer
	if err := db.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := Open("restored")
	if _, err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	rtab, err := restored.TableIn("s", "jobs_by_day")
	if err != nil {
		t.Fatal(err)
	}
	if !rtab.Def().Derived {
		t.Error("snapshot round trip lost the derived mark")
	}
	head = restored.Binlog().Last()
	mutate(restored, rtab)
	if got := restored.Binlog().Last(); got != head {
		t.Errorf("restored derived table logged %d events", got-head)
	}
}
