package warehouse

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func jobsDef() TableDef {
	return TableDef{
		Name: "jobs",
		Columns: []Column{
			{Name: "job_id", Type: TypeInt},
			{Name: "user", Type: TypeString},
			{Name: "resource", Type: TypeString},
			{Name: "cores", Type: TypeInt},
			{Name: "wall", Type: TypeFloat},
			{Name: "end_time", Type: TypeTime, Nullable: true},
		},
		PrimaryKey: []string{"job_id"},
	}
}

func mustTable(t testing.TB, db *DB, schema string) *Table {
	t.Helper()
	s := db.EnsureSchema(schema)
	tab, err := s.EnsureTable(jobsDef())
	if err != nil {
		t.Fatalf("EnsureTable: %v", err)
	}
	return tab
}

// updateCols upserts the row under key with the given columns changed.
// Must run inside a write transaction.
func updateCols(tab *Table, key any, set map[string]any) error {
	r, ok := tab.GetByKey(key)
	if !ok {
		return fmt.Errorf("no row with key %v", key)
	}
	vals := r.Values()
	for c, v := range set {
		i, ok := tab.lay.colIndex[c]
		if !ok {
			return fmt.Errorf("no column %q", c)
		}
		vals[i] = v
	}
	return tab.UpsertRow(vals)
}

// applyOne replays one event as a transaction of its own.
func applyOne(db *DB, ev Event) error {
	_, err := db.ApplyAll([]Event{ev})
	return err
}

// restore applies a snapshot to db the way every caller does: read it
// whole, then apply its events.
func restore(db *DB, r io.Reader) (uint64, error) {
	lsn, evs, err := ReadSnapshot(r)
	if err == nil {
		_, err = db.ApplyAll(evs)
	}
	return lsn, err
}

// snapshotSchemas writes a snapshot of the named schemas of db to w.
func snapshotSchemas(db *DB, w io.Writer, names ...string) error {
	lsn, evs := db.SnapshotEvents(names)
	return WriteSnapshot(w, db.Name(), lsn, evs)
}

// scanData calls fn for every live row of a committed snapshot, in
// position order; fn returning false stops the scan.
func scanData(td *TableData, fn func(Row) bool) {
	for pos := 0; pos < td.rows; pos++ {
		if !td.dead[pos] && !fn(Row{lay: td.lay, cols: td.cols, pos: pos}) {
			return
		}
	}
}

func TestTableDefValidate(t *testing.T) {
	cases := []struct {
		name string
		def  TableDef
		ok   bool
	}{
		{"valid", jobsDef(), true},
		{"no name", TableDef{Columns: []Column{{Name: "a", Type: TypeInt}}}, false},
		{"no columns", TableDef{Name: "t"}, false},
		{"dup column", TableDef{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}, {Name: "a", Type: TypeInt}}}, false},
		{"bad type", TableDef{Name: "t", Columns: []Column{{Name: "a", Type: 0}}}, false},
		{"bad pk", TableDef{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}, PrimaryKey: []string{"z"}}, false},
	}
	for _, c := range cases {
		err := c.def.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestInsertAndGetByKey(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "mod_shredder")
	err := db.Do(func() error {
		return tab.Insert(map[string]any{
			"job_id": 1, "user": "alice", "resource": "comet", "cores": 24, "wall": 3600.0,
		})
	})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	var row Row
	var ok bool
	db.View(func() error {
		row, ok = tab.GetByKey(int64(1))
		return nil
	})
	if !ok {
		t.Fatal("row not found by key")
	}
	if row.String("user") != "alice" || row.Int("cores") != 24 || row.Float("wall") != 3600 {
		t.Errorf("unexpected row values: %v", row.Values())
	}
	if v, _ := row.Lookup("end_time"); v != nil {
		t.Errorf("nullable column should be nil, got %v", v)
	}
}

func TestInsertRejectsBadRows(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "s")
	cases := []map[string]any{
		{"job_id": 1, "user": "a", "resource": "r", "cores": "x", "wall": 1.0}, // wrong type
		{"job_id": 1, "user": "a", "resource": "r", "cores": 1, "bogus": 1},    // unknown column
		{"user": "a", "resource": "r", "cores": 1, "wall": 1.0},                // nil non-nullable pk
		{"job_id": 1, "user": nil, "resource": "r", "cores": 1, "wall": 1.0},   // nil non-nullable
	}
	for i, row := range cases {
		if err := db.Do(func() error { return tab.Insert(row) }); err == nil {
			t.Errorf("case %d: expected error for %v", i, row)
		}
	}
}

func TestDuplicatePrimaryKey(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "s")
	row := map[string]any{"job_id": 7, "user": "a", "resource": "r", "cores": 1, "wall": 1.0}
	if err := db.Do(func() error { return tab.Insert(row) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func() error { return tab.Insert(row) }); err == nil {
		t.Fatal("expected duplicate-key error")
	}
}

func TestUpsertReplacesRow(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		if err := tab.Upsert(map[string]any{"job_id": 1, "user": "a", "resource": "r", "cores": 1, "wall": 1.0}); err != nil {
			return err
		}
		return tab.Upsert(map[string]any{"job_id": 1, "user": "b", "resource": "r", "cores": 8, "wall": 2.0})
	})
	db.View(func() error {
		r, ok := tab.GetByKey(int64(1))
		if !ok {
			t.Fatal("row missing after upsert")
		}
		if r.String("user") != "b" || r.Int("cores") != 8 {
			t.Errorf("upsert did not replace: %v", r.Values())
		}
		if tab.Len() != 1 {
			t.Errorf("Len = %d, want 1", tab.Len())
		}
		return nil
	})
}

func TestDeleteAndTombstones(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		for i := 0; i < 10; i++ {
			if err := tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": i, "wall": float64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	var n int
	db.Do(func() error {
		for i := 0; i < 10; i += 2 {
			if tab.DeleteByKey(int64(i)) {
				n++
			}
		}
		return nil
	})
	if n != 5 {
		t.Fatalf("deleted %d, want 5", n)
	}
	db.View(func() error {
		if tab.Len() != 5 {
			t.Errorf("Len = %d, want 5", tab.Len())
		}
		tab.Scan(func(r Row) bool {
			if r.Int("cores")%2 == 0 {
				t.Errorf("even row survived: %v", r.Values())
			}
			return true
		})
		if _, ok := tab.GetByKey(int64(2)); ok {
			t.Error("deleted row still reachable by key")
		}
		return nil
	})
}

func TestIndexMaintainedAcrossDeleteAndUpsert(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		tab.Insert(map[string]any{"job_id": 1, "user": "u", "resource": "a", "cores": 1, "wall": 1.0})
		tab.Insert(map[string]any{"job_id": 2, "user": "u", "resource": "a", "cores": 1, "wall": 1.0})
		tab.Upsert(map[string]any{"job_id": 2, "user": "u", "resource": "b", "cores": 1, "wall": 1.0})
		tab.DeleteByKey(int64(1))
		tab.Insert(map[string]any{"job_id": 3, "user": "u", "resource": "b", "cores": 1, "wall": 1.0})
		return updateCols(tab, int64(3), map[string]any{"resource": "c"})
	})
	db.View(func() error {
		in := map[string]int{}
		tab.Scan(func(r Row) bool { in[r.String("resource")]++; return true })
		if in["a"] != 0 || in["b"] != 1 || in["c"] != 1 {
			t.Errorf("scan counts a=%d b=%d c=%d, want 0,1,1", in["a"], in["b"], in["c"])
		}
		if _, ok := tab.GetByKey(int64(1)); ok {
			t.Error("deleted job 1 still reachable by key")
		}
		for id, want := range map[int64]string{2: "b", 3: "c"} {
			if r, ok := tab.GetByKey(id); !ok || r.String("resource") != want {
				t.Errorf("GetByKey(%d) = %v, %v; want resource %q", id, r.Values(), ok, want)
			}
		}
		return nil
	})
	// An update event carries the new row only (the applier upserts by
	// primary key); a delete event carries the row it removed.
	evs, _ := db.Binlog().ReadFrom(0, 0)
	var updates, deletes int
	for _, ev := range evs {
		switch ev.Kind {
		case EvUpdate:
			updates++
			if ev.Old != nil || len(ev.Row) != 6 {
				t.Errorf("update event: Row %v, Old %v", ev.Row, ev.Old)
			}
		case EvDelete:
			deletes++
			if ev.Row != nil || len(ev.Old) != 6 || ev.Old[0] != int64(1) || ev.Old[2] != "a" {
				t.Errorf("delete event: Row %v, Old %v", ev.Row, ev.Old)
			}
		}
	}
	if updates != 2 || deletes != 1 {
		t.Errorf("logged %d updates and %d deletes, want 2 and 1", updates, deletes)
	}
}

func TestBinlogRecordsMutations(t *testing.T) {
	db := Open("test")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		tab.Insert(map[string]any{"job_id": 1, "user": "a", "resource": "r", "cores": 1, "wall": 1.0})
		tab.Upsert(map[string]any{"job_id": 1, "user": "b", "resource": "r", "cores": 2, "wall": 2.0})
		tab.DeleteByKey(int64(1))
		return nil
	})
	evs, err := db.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []EventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EvCreateSchema, EvCreateTable, EvInsert, EvUpdate, EvDelete}
	if len(kinds) != len(want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
	for i, e := range evs {
		if e.LSN != uint64(i+1) {
			t.Errorf("event %d LSN = %d, want %d", i, e.LSN, i+1)
		}
	}
}

func TestBinlogTrimAndTrimmedError(t *testing.T) {
	b := NewBinlog()
	for i := 0; i < 10; i++ {
		b.Append(Event{Kind: EvInsert, Schema: "s", Table: "t"})
	}
	b.Trim(5)
	if _, err := b.ReadFrom(3, 0); err != ErrPositionTrimmed {
		t.Errorf("expected ErrPositionTrimmed, got %v", err)
	}
	evs, err := b.ReadFrom(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 || evs[0].LSN != 6 {
		t.Errorf("got %d events starting %d", len(evs), evs[0].LSN)
	}
	if b.Last() != 10 {
		t.Errorf("Last = %d, want 10", b.Last())
	}
}

func TestBinlogWaitWakesOnAppend(t *testing.T) {
	b := NewBinlog()
	got := make(chan []Event, 1)
	go func() {
		evs, err := b.Wait(context.Background(), 0, 0)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		got <- evs
	}()
	time.Sleep(10 * time.Millisecond)
	b.Append(Event{Kind: EvInsert, Schema: "s", Table: "t"})
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].LSN != 1 {
			t.Errorf("unexpected events %v", evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on append")
	}
}

func TestBinlogWaitContextCancel(t *testing.T) {
	b := NewBinlog()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Wait(ctx, 0, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not observe cancellation")
	}
}

func TestApplyReplaysBinlogIdentically(t *testing.T) {
	src := Open("satellite")
	tab := mustTable(t, src, "mod_shredder")
	src.Do(func() error {
		for i := 0; i < 50; i++ {
			tab.Insert(map[string]any{"job_id": i, "user": fmt.Sprintf("u%d", i%5), "resource": "r", "cores": i, "wall": float64(i)})
		}
		updateCols(tab, int64(3), map[string]any{"cores": 1000})
		tab.DeleteByKey(int64(7))
		return nil
	})

	dst := Open("hub")
	evs, _ := src.Binlog().ReadFrom(0, 0)
	for _, ev := range evs {
		if err := applyOne(dst, ev); err != nil {
			t.Fatalf("apply %v: %v", ev.Kind, err)
		}
	}

	if dst.Count("mod_shredder", "jobs") != src.Count("mod_shredder", "jobs") {
		t.Fatalf("row counts differ: %d vs %d", dst.Count("mod_shredder", "jobs"), src.Count("mod_shredder", "jobs"))
	}
	dtab, err := dst.TableIn("mod_shredder", "jobs")
	if err != nil {
		t.Fatal(err)
	}
	dst.View(func() error {
		r, ok := dtab.GetByKey(int64(3))
		if !ok || r.Int("cores") != 1000 {
			t.Errorf("update not replicated: ok=%v row=%v", ok, r.Values())
		}
		if _, ok := dtab.GetByKey(int64(7)); ok {
			t.Error("delete not replicated")
		}
		return nil
	})
}

func TestApplyIdempotentDDL(t *testing.T) {
	dst := Open("hub")
	def := jobsDef()
	ev := Event{Kind: EvCreateTable, Schema: "s", Table: "jobs", Def: &def}
	if err := applyOne(dst, ev); err != nil {
		t.Fatal(err)
	}
	if err := applyOne(dst, ev); err != nil {
		t.Fatalf("re-apply of CREATE_TABLE must be idempotent, got %v", err)
	}
	if err := applyOne(dst, Event{Kind: EvCreateSchema, Schema: "s"}); err != nil {
		t.Fatalf("re-apply of CREATE_SCHEMA must be idempotent, got %v", err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	db := Open("src")
	tab := mustTable(t, db, "mod_shredder")
	now := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	db.Do(func() error {
		for i := 0; i < 25; i++ {
			tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": i, "wall": float64(i), "end_time": now})
		}
		return nil
	})
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := Open("dst")
	lsn, err := restore(dst, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != db.Binlog().Last() {
		t.Errorf("restore LSN = %d, want %d", lsn, db.Binlog().Last())
	}
	if dst.Count("mod_shredder", "jobs") != 25 {
		t.Errorf("restored %d rows, want 25", dst.Count("mod_shredder", "jobs"))
	}
	dtab, _ := dst.TableIn("mod_shredder", "jobs")
	dst.View(func() error {
		r, ok := dtab.GetByKey(int64(3))
		if !ok {
			t.Fatal("row 3 missing after restore")
		}
		if v, _ := r.Lookup("end_time"); v.(time.Time) != now {
			t.Errorf("time survived wrong: %v", v)
		}
		return nil
	})
}

func TestRestoreRenamed(t *testing.T) {
	db := Open("src")
	mustTable(t, db, "mod_shredder")
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := Open("dst")
	_, evs, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		evs[i].Schema = "fed_siteA" // rename on transfer
	}
	if _, err := dst.ApplyAll(evs); err != nil {
		t.Fatal(err)
	}
	if dst.Schema("fed_siteA") == nil {
		t.Error("renamed schema missing")
	}
	if dst.Schema("mod_shredder") != nil {
		t.Error("original schema name should not exist on destination")
	}
}

func TestSnapshotSubsetOfSchemas(t *testing.T) {
	db := Open("src")
	mustTable(t, db, "keep")
	mustTable(t, db, "drop")
	var buf bytes.Buffer
	if err := snapshotSchemas(db, &buf, "keep"); err != nil {
		t.Fatal(err)
	}
	dst := Open("dst")
	if _, err := restore(dst, &buf); err != nil {
		t.Fatal(err)
	}
	if dst.Schema("keep") == nil || dst.Schema("drop") != nil {
		t.Errorf("subset snapshot wrong: schemas=%v", dst.Schemas())
	}
}

func TestSchemaLifecycle(t *testing.T) {
	db := Open("test")
	a := db.EnsureSchema("a")
	if again := db.EnsureSchema("a"); again != a {
		t.Error("EnsureSchema of an existing schema made a new one")
	}
	if err := applyOne(db, Event{Kind: EvDropSchema, Schema: "a"}); err != nil {
		t.Fatal(err)
	}
	if db.Schema("a") != nil {
		t.Error("dropped schema still visible")
	}
	if err := applyOne(db, Event{Kind: EvDropSchema, Schema: "a"}); err != nil {
		t.Errorf("replayed drop of a dropped schema: %v", err)
	}
}

// TestEnsureTableRefusesLayoutChange: ensuring a table again with its
// own definition returns the same table and logs nothing, and a
// definition whose columns, primary key or Derived flag differ is
// refused with an error naming schema.table and the first difference.
func TestEnsureTableRefusesLayoutChange(t *testing.T) {
	db := Open("test")
	s := db.EnsureSchema("modw")
	tab := mustTable(t, db, "modw")
	head := db.Binlog().Last()
	again, err := s.EnsureTable(jobsDef())
	if err != nil || again != tab {
		t.Fatalf("EnsureTable of an identical definition: %p, %v; want %p", again, err, tab)
	}
	if db.Binlog().Last() != head {
		t.Error("EnsureTable of an identical definition logged an event")
	}
	for _, c := range []struct {
		name string
		edit func(*TableDef)
		want string
	}{
		{"renamed column", func(d *TableDef) { d.Columns[3].Name = "min_cores" },
			`column 4 is {Name:cores Type:BIGINT Nullable:false}, want {Name:min_cores Type:BIGINT Nullable:false}`},
		{"retyped column", func(d *TableDef) { d.Columns[4].Type = TypeInt },
			`column 5 is {Name:wall Type:DOUBLE Nullable:false}, want {Name:wall Type:BIGINT Nullable:false}`},
		{"nullability", func(d *TableDef) { d.Columns[5].Nullable = false },
			`column 6 is {Name:end_time Type:DATETIME Nullable:true}, want {Name:end_time Type:DATETIME Nullable:false}`},
		{"dropped column", func(d *TableDef) { d.Columns = d.Columns[:5] },
			`column 6 is {Name:end_time Type:DATETIME Nullable:true}, want none`},
		{"added column", func(d *TableDef) { d.Columns = append(d.Columns, Column{Name: "max_cores", Type: TypeFloat}) },
			`column 7 is none, want {Name:max_cores Type:DOUBLE Nullable:false}`},
		{"primary key", func(d *TableDef) { d.PrimaryKey = []string{"job_id", "resource"} },
			`primary key is [job_id], want [job_id resource]`},
		{"derived", func(d *TableDef) { d.Derived = true }, `derived is false, want true`},
	} {
		def := jobsDef()
		c.edit(&def)
		got, err := s.EnsureTable(def)
		if err == nil || got != nil {
			t.Errorf("%s: EnsureTable returned %p, %v; want a refusal", c.name, got, err)
			continue
		}
		if want := "modw.jobs exists with another layout: " + c.want; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, want)
		}
	}
	if s.Table("jobs") != tab || len(tab.Columns()) != len(jobsDef().Columns) {
		t.Error("a refused EnsureTable changed the stored table")
	}
}

// TestApplyAllRefusesLayoutChange: replication and restores create
// tables through CREATE_TABLE events, and one for a table that exists
// with another layout is refused like EnsureTable refuses it — naming
// schema.table — with nothing written. Were it taken as a no-op, the
// rows that follow it in its own layout (here a and b swapped) would
// land in the other one's columns. The table's own layout stays
// idempotent, as reconnects resend DDL.
func TestApplyAllRefusesLayoutChange(t *testing.T) {
	db := Open("test")
	ab := TableDef{Name: "t", Columns: []Column{{Name: "a", Type: TypeString}, {Name: "b", Type: TypeString}}}
	ba := TableDef{Name: "t", Columns: []Column{ab.Columns[1], ab.Columns[0]}}
	if err := applyOne(db, Event{Kind: EvCreateTable, Schema: "s", Table: "t", Def: &ab}); err != nil {
		t.Fatal(err)
	}
	head := db.Binlog().Last()
	n, err := db.ApplyAll([]Event{
		{Kind: EvCreateTable, Schema: "s", Table: "t", Def: &ba},
		{Kind: EvInsert, Schema: "s", Table: "t", Row: []any{"B", "A"}}, // b="B", a="A"
	})
	if err == nil || n != 0 || !strings.Contains(err.Error(), "s.t exists with another layout: column 1 is {Name:a") {
		t.Fatalf("CREATE_TABLE of another layout: applied %d, %v; want a refusal naming s.t", n, err)
	}
	if got := db.Count("s", "t"); got != 0 || db.Binlog().Last() != head {
		t.Fatalf("the refused batch wrote %d rows and %d events", got, db.Binlog().Last()-head)
	}
	if _, err := db.ApplyAll([]Event{
		{Kind: EvCreateTable, Schema: "s", Table: "t", Def: &ab},
		{Kind: EvInsert, Schema: "s", Table: "t", Row: []any{"A", "B"}},
	}); err != nil {
		t.Fatalf("CREATE_TABLE of the table's own layout: %v", err)
	}
	tab, _ := db.TableIn("s", "t")
	db.View(func() error {
		tab.Scan(func(r Row) bool {
			if a, b := r.Get("a"), r.Get("b"); a != "A" || b != "B" {
				t.Errorf("stored a=%v b=%v, want a=A b=B", a, b)
			}
			return true
		})
		return nil
	})
}

func TestOpenWithoutBinlog(t *testing.T) {
	db := OpenOptions("scratch", Options{NoBinlog: true})
	mustTable(t, db, "s")
	if db.Binlog().Len() != 0 {
		t.Errorf("binlog should stay empty, has %d events", db.Binlog().Len())
	}
}

func TestDBHelpers(t *testing.T) {
	db := Open("test")
	mustTable(t, db, "s")
	if err := db.Insert("s", "jobs", map[string]any{"job_id": 1, "user": "a", "resource": "r", "cores": 1, "wall": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert("s", "jobs", map[string]any{"job_id": 1, "user": "z", "resource": "r", "cores": 1, "wall": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRow("s", "jobs", []any{int64(2), "b", "r", int64(4), 2.0, nil}); err != nil {
		t.Fatal(err)
	}
	if db.Count("s", "jobs") != 2 {
		t.Errorf("count = %d, want 2", db.Count("s", "jobs"))
	}
	if err := db.Insert("nope", "jobs", nil); err == nil {
		t.Error("insert into missing schema should fail")
	}
	if err := db.Insert("s", "nope", nil); err == nil {
		t.Error("insert into missing table should fail")
	}
}
