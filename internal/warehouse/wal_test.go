package warehouse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recoverDB opens an empty DB and replays the log at path into it.
func recoverDB(name, path string) (*DB, uint64, error) {
	db := Open(name)
	last, err := ReplayLog(db, path)
	return db, last, err
}

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "binlog.wal")
}

func TestLogWriterAndRecover(t *testing.T) {
	path := walPath(t)
	db := Open("sat")
	w, err := OpenLogWriterOpts(db, path, 0, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab := mustTable(t, db, "modw")
	db.Do(func() error {
		for i := 0; i < 100; i++ {
			tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": i, "wall": float64(i)})
		}
		updateCols(tab, int64(5), map[string]any{"cores": 999})
		tab.DeleteByKey(int64(7))
		return nil
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Position() != db.Binlog().Last() {
		t.Fatalf("writer drained to %d of %d", w.Position(), db.Binlog().Last())
	}

	rec, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if last != db.Binlog().Last() {
		t.Errorf("recovered to LSN %d, want %d", last, db.Binlog().Last())
	}
	if rec.Count("modw", "jobs") != db.Count("modw", "jobs") {
		t.Errorf("row counts differ: %d vs %d", rec.Count("modw", "jobs"), db.Count("modw", "jobs"))
	}
	rtab, _ := rec.TableIn("modw", "jobs")
	rec.View(func() error {
		r, ok := rtab.GetByKey(int64(5))
		if !ok || r.Int("cores") != 999 {
			t.Error("update lost in recovery")
		}
		if _, ok := rtab.GetByKey(int64(7)); ok {
			t.Error("delete lost in recovery")
		}
		return nil
	})
	// Recovery re-logs: the recovered DB's binlog position matches, so
	// replication can resume where it left off.
	if rec.Binlog().Last() != db.Binlog().Last() {
		t.Errorf("recovered binlog at %d, original at %d", rec.Binlog().Last(), db.Binlog().Last())
	}
}

func TestLogWriterFollowsLiveWrites(t *testing.T) {
	path := walPath(t)
	db := Open("sat")
	tab := mustTable(t, db, "s")
	w, err := OpenLogWriterOpts(db, path, 0, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.Do(func() error {
		return tab.Insert(map[string]any{"job_id": 1, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
	})
	deadline := time.Now().Add(5 * time.Second)
	for w.Position() < db.Binlog().Last() {
		if time.Now().After(deadline) {
			t.Fatal("writer did not follow live writes")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverResumeAppend(t *testing.T) {
	path := walPath(t)
	// Session 1: write some events.
	db1 := Open("sat")
	w1, _ := OpenLogWriterOpts(db1, path, 0, WALOptions{})
	tab1 := mustTable(t, db1, "s")
	db1.Do(func() error {
		for i := 0; i < 10; i++ {
			tab1.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}
		return nil
	})
	w1.Close()

	// Session 2: recover, append more.
	db2, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenLogWriterOpts(db2, path, last, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab2, _ := db2.TableIn("s", "jobs")
	db2.Do(func() error {
		for i := 10; i < 15; i++ {
			tab2.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}
		return nil
	})
	w2.Close()

	// Session 3: recover everything.
	db3, _, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if got := db3.Count("s", "jobs"); got != 15 {
		t.Errorf("recovered %d rows, want 15", got)
	}
}

func TestRecoverMissingFile(t *testing.T) {
	db, last, err := recoverDB("sat", filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil || last != 0 || db == nil {
		t.Fatalf("missing file should recover empty: db=%v last=%d err=%v", db, last, err)
	}
}

func TestRecoverTruncatedTail(t *testing.T) {
	path := walPath(t)
	db := Open("sat")
	w, _ := OpenLogWriterOpts(db, path, 0, WALOptions{})
	insertEach(t, db, mustTable(t, db, "s"), 0, 20) // a record per row
	w.Close()

	// Simulate a crash mid-write: chop bytes off the end.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-25); err != nil {
		t.Fatal(err)
	}
	rec, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatalf("truncated tail must not fail recovery: %v", err)
	}
	if last == 0 || rec.Count("s", "jobs") == 0 {
		t.Error("nothing recovered from truncated log")
	}
	if rec.Count("s", "jobs") >= 20 {
		t.Error("truncation should have lost the tail")
	}
}

func TestReplayLogIntoExistingDB(t *testing.T) {
	path := walPath(t)
	// Session 1: a DB with realm-style structure and some rows, WAL on.
	db1 := Open("sat")
	tab1 := mustTable(t, db1, "modw")
	w1, err := OpenLogWriterOpts(db1, path, db1.Binlog().Last(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db1.Do(func() error {
		for i := 0; i < 8; i++ {
			tab1.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}
		return nil
	})
	w1.Close()

	// Session 2: fresh process constructs its schemas first (as the
	// satellite daemon does), then replays the WAL into them.
	db2 := Open("sat")
	mustTable(t, db2, "modw")
	last, err := ReplayLog(db2, path)
	if err != nil {
		t.Fatal(err)
	}
	if last == 0 || db2.Count("modw", "jobs") != 8 {
		t.Fatalf("replayed to %d, rows %d", last, db2.Count("modw", "jobs"))
	}
	// Attach the WAL and add more rows.
	w2, err := OpenLogWriterOpts(db2, path, db2.Binlog().Last(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab2, _ := db2.TableIn("modw", "jobs")
	db2.Do(func() error {
		for i := 8; i < 12; i++ {
			tab2.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}
		return nil
	})
	w2.Close()

	// Session 3: everything from both sessions replays cleanly.
	db3 := Open("sat")
	mustTable(t, db3, "modw")
	if _, err := ReplayLog(db3, path); err != nil {
		t.Fatal(err)
	}
	if got := db3.Count("modw", "jobs"); got != 12 {
		t.Errorf("rows after two sessions = %d, want 12", got)
	}
	// Missing file is a clean no-op.
	if n, err := ReplayLog(db3, path+".missing"); err != nil || n != 0 {
		t.Errorf("missing file: n=%d err=%v", n, err)
	}
}

// TestReplayKeepsTheWALsLSNs: a WAL written before identical upserts
// stopped being logged holds UPDATEs equal to the stored row. Replay
// must log each of them again, so the binlog ends at the WAL's last LSN
// and the next write continues the WAL's numbering — a head below it
// would hand new writes LSNs that the WAL, and a hub that acknowledged
// them, already hold. A record that applies as no event (a DELETE of an
// absent key) is refused instead, and the file is left as it was.
func TestReplayKeepsTheWALsLSNs(t *testing.T) {
	evs := sampleWALEvents(t)
	var insert Event
	for _, ev := range evs {
		if ev.Kind == EvInsert && ev.Row[0] == int64(0) { // job 0: never updated or deleted
			insert = ev
		}
	}
	if insert.Row == nil {
		t.Fatal("sample has no INSERT of job 0")
	}
	n := evs[len(evs)-1].LSN
	identical := insert
	identical.Kind, identical.LSN = EvUpdate, n+1
	absent := Event{Kind: EvDelete, Schema: insert.Schema, Table: insert.Table, LSN: n + 1,
		Old: append([]any{int64(999)}, insert.Row[1:]...)}

	writeWAL := func(evs ...Event) (path string, file []byte) {
		for _, ev := range evs {
			file = append(file, binaryWALRecord(ev)...)
		}
		path = walPath(t)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, file
	}

	path, _ := writeWAL(append(evs, identical)...)
	db, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if last != n+1 || db.Binlog().Last() != last {
		t.Fatalf("replayed to LSN %d with the binlog at %d, want both at %d", last, db.Binlog().Last(), n+1)
	}
	w, err := OpenLogWriterOpts(db, path, db.Binlog().Last(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.TableIn(insert.Schema, insert.Table)
	if err := db.Do(func() error {
		return tab.Insert(map[string]any{"job_id": 100, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if last != n+2 || again.Binlog().Last() != n+2 || again.Count(insert.Schema, insert.Table) != db.Count(insert.Schema, insert.Table) {
		t.Errorf("second replay: LSN %d, binlog %d, %d rows; want LSN %d and %d rows",
			last, again.Binlog().Last(), again.Count(insert.Schema, insert.Table), n+2, db.Count(insert.Schema, insert.Table))
	}

	path, file := writeWAL(append(evs, absent)...)
	if _, _, err := recoverDB("sat", path); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("replaying up to LSN %d", n+1)) {
		t.Errorf("a DELETE of an absent key: replay error %v, want the LSN shortfall named", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, file) {
		t.Errorf("refused replay changed the file (%d bytes, was %d)", len(after), len(file))
	}
}

// TestReplayWALOfRowCodedCommits: testdata/blockwal is a WAL written by
// the build whose commits coded each row event from a boxed row
// (AppendEvents), and the snapshot that build took of the DB that wrote
// it: DDL, a commit of 550 job facts in two blocks, upserts and
// deletes, cells equal to the row above, NULLs, -0 and NaN, a truncate
// and LOADs, 592 events in all. Replayed, the WAL gives that snapshot
// as this build codes the same events, byte for byte, at the same head
// LSN. This build codes them 8 254 bytes shorter: that build coded
// modw.kv's secondary index {s} into its CREATE_TABLE, which this build
// reads and drops (tables have no secondary index), so its own
// snapshot codes an empty list there, 3 bytes shorter; and that build
// spelled a string in full each time a LOAD vector held it again,
// where this build refers back to its first spelling (cellStringRef),
// 8 251 bytes shorter. A WAL from before rows were coded from vectors,
// from before secondary indexes went and from before string references,
// restores as it did.
func TestReplayWALOfRowCodedCommits(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "blockwal", "binlog.wal"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "blockwal", "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	path := walPath(t) // replay may truncate a torn tail: never the committed file
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if last != 592 || db.Binlog().Last() != 592 {
		t.Fatalf("replay ends at LSN %d with the binlog at %d, want 592", last, db.Binlog().Last())
	}
	var got bytes.Buffer
	if err := db.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	// The writing build's snapshot as this build codes it: the same
	// events, modw.kv's index list dropped and repeated strings referred
	// back to.
	lsn, evs, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var recoded bytes.Buffer
	if err := WriteSnapshot(&recoded, db.Name(), lsn, evs); err != nil {
		t.Fatal(err)
	}
	if len(want)-recoded.Len() != 8254 {
		t.Fatalf("the writing build's snapshot recodes from %d to %d bytes, want 8 254 fewer: its one index list, {s}, dropped (3) and its repeated strings referred back to (8 251)", len(want), recoded.Len())
	}
	if !bytes.Equal(got.Bytes(), recoded.Bytes()) {
		t.Fatalf("replayed snapshot is %d bytes and differs from the %d bytes the writing build took (%d recoded)", got.Len(), len(want), recoded.Len())
	}
}
