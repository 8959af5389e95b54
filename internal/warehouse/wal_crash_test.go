package warehouse

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdmodfed/internal/faults"
)

// writeWALRows opens a WAL on a fresh DB, inserts n rows into
// schema "s" (job_id 0..n-1), one commit and so one record each, and
// closes the writer so every record is on disk.
func writeWALRows(t *testing.T, path string, n int, opts WALOptions) {
	t.Helper()
	db := Open("sat")
	w, err := OpenLogWriterOpts(db, path, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertEach(t, db, mustTable(t, db, "s"), 0, n)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// insertEach inserts rows job_id from..to-1 into tab, one commit each.
func insertEach(t testing.TB, db *DB, tab *Table, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := db.Do(func() error {
			return tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCrashRecoveryProperty is the seeded torn-tail property test:
// write N events, one record each, truncate the file at a random byte
// offset, recover.
// Whatever the cut point, every record before it survives intact (the
// recovered rows are exactly a prefix of the inserted ones), recovery
// truncates the file to the last valid record (so a second recovery
// is a no-op), and a writer resumed at the recovered LSN appends
// events that later replays see.
func TestWALCrashRecoveryProperty(t *testing.T) {
	const rows = 40
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := walPath(t)
		writeWALRows(t, path, rows, WALOptions{})
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Int63n(info.Size() + 1)
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}

		rec, last, err := recoverDB("sat", path)
		if err != nil {
			t.Fatalf("seed %d cut %d: recovery failed: %v", seed, cut, err)
		}
		count := rec.Count("s", "jobs")
		if count > rows {
			t.Fatalf("seed %d: recovered %d rows from %d inserted", seed, count, rows)
		}
		// Prefix property: rows 0..count-1 present, nothing after.
		if tab, err := rec.TableIn("s", "jobs"); err == nil {
			rec.View(func() error {
				for i := 0; i < count; i++ {
					if _, ok := tab.GetByKey(int64(i)); !ok {
						t.Errorf("seed %d cut %d: row %d missing from recovered prefix of %d", seed, cut, i, count)
					}
				}
				if _, ok := tab.GetByKey(int64(count)); ok {
					t.Errorf("seed %d cut %d: row %d present beyond recovered prefix", seed, cut, count)
				}
				return nil
			})
		} else if count != 0 {
			t.Fatalf("seed %d: count %d but table missing", seed, count)
		}
		if last != rec.Binlog().Last() {
			t.Fatalf("seed %d: recovery reported LSN %d, binlog at %d", seed, last, rec.Binlog().Last())
		}

		// Truncate-idempotence: recovery shrank the file to exactly the
		// valid prefix; recovering again changes nothing.
		sizeAfter, _ := os.Stat(path)
		rec2, last2, err := recoverDB("sat", path)
		if err != nil {
			t.Fatalf("seed %d: second recovery failed: %v", seed, err)
		}
		if last2 != last || rec2.Count("s", "jobs") != count {
			t.Fatalf("seed %d: second recovery diverged: LSN %d vs %d, rows %d vs %d",
				seed, last2, last, rec2.Count("s", "jobs"), count)
		}
		sizeAgain, _ := os.Stat(path)
		if sizeAfter.Size() != sizeAgain.Size() {
			t.Fatalf("seed %d: recovery not idempotent: size %d then %d", seed, sizeAfter.Size(), sizeAgain.Size())
		}

		// Resume: the writer picks up at the recovered LSN and later
		// replays see both the prefix and the new events.
		if count == 0 {
			continue // schema events were cut too; nothing to resume onto
		}
		w, err := OpenLogWriterOpts(rec, path, last, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := rec.TableIn("s", "jobs")
		rec.Do(func() error {
			for i := 0; i < 5; i++ {
				tab.Insert(map[string]any{"job_id": 1000 + i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
			}
			return nil
		})
		if err := w.Close(); err != nil {
			t.Fatalf("seed %d: resume close: %v", seed, err)
		}
		rec3, _, err := recoverDB("sat", path)
		if err != nil {
			t.Fatalf("seed %d: recovery after resume: %v", seed, err)
		}
		if got := rec3.Count("s", "jobs"); got != count+5 {
			t.Fatalf("seed %d: after resume recovered %d rows, want %d", seed, got, count+5)
		}
	}
}

// TestWALCloseFlushesFinalEvents is the shutdown regression test:
// events committed in the last instant before Close must be on disk
// (flushed and fsynced) under every fsync policy.
func TestWALCloseFlushesFinalEvents(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(string(policy), func(t *testing.T) {
			path := walPath(t)
			// The disarmed registry still counts Sync calls, proving
			// Close really fsyncs even under "none".
			reg := faults.New(1)
			db := Open("sat")
			w, err := OpenLogWriterOpts(db, path, 0, WALOptions{
				Fsync: policy, FsyncInterval: DefaultFsyncInterval, Faults: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			tab := mustTable(t, db, "s")
			db.Do(func() error {
				for i := 0; i < 30; i++ {
					tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
				}
				return nil
			})
			// No sleep: Close itself must drain and flush.
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if syncs, _ := reg.Stats(faults.WALSyncError); syncs == 0 {
				t.Fatalf("policy %s: Close never fsynced", policy)
			}
			rec, _, err := recoverDB("sat", path)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Count("s", "jobs"); got != 30 {
				t.Fatalf("policy %s: recovered %d of 30 rows written just before Close", policy, got)
			}
		})
	}
}

// TestWALFsyncErrorSurfaces: an injected fsync failure must not be
// swallowed — Close reports it.
func TestWALFsyncErrorSurfaces(t *testing.T) {
	reg := faults.New(1)
	reg.EnableEvery(faults.WALSyncError, 1) // every fsync fails
	path := walPath(t)
	db := Open("sat")
	w, err := OpenLogWriterOpts(db, path, 0, WALOptions{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		return tab.Insert(map[string]any{"job_id": 1, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
	})
	err = w.Close()
	if !faults.IsInjected(err) {
		t.Fatalf("Close = %v, want the injected fsync error", err)
	}
}

// TestWALShortWriteTornTail: an injected short write mid-append leaves
// a torn record; recovery truncates at the tear and resumes, and the
// rows before the tear survive deterministically.
func TestWALShortWriteTornTail(t *testing.T) {
	reg := faults.New(1)
	// Records: 1 EnsureSchema + 1 CreateTable + one per insert commit.
	// The 6th record write (insert #4) tears.
	reg.EnableEvery(faults.WALShortWrite, 6)
	path := walPath(t)
	db := Open("sat")
	w, err := OpenLogWriterOpts(db, path, 0, WALOptions{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	insertEach(t, db, mustTable(t, db, "s"), 0, 8)
	if err := w.Close(); !faults.IsInjected(err) {
		t.Fatalf("Close = %v, want the injected short-write error surfaced", err)
	}
	if _, injected := reg.Stats(faults.WALShortWrite); injected == 0 {
		t.Fatal("short write never injected")
	}
	rec, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	if got := rec.Count("s", "jobs"); got != 3 {
		t.Fatalf("recovered %d rows, want the 3 before the torn record", got)
	}
	// And the truncated file accepts resumed appends.
	w2, err := OpenLogWriterOpts(rec, path, last, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rtab, _ := rec.TableIn("s", "jobs")
	rec.Do(func() error {
		return rtab.Insert(map[string]any{"job_id": 100, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
	})
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, _, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Count("s", "jobs"); got != 4 {
		t.Fatalf("after resume recovered %d rows, want 4", got)
	}
}

// walRecord frames one payload as the writer does.
func walRecord(payload []byte) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// walValidPrefix returns the end offsets of the leading run of records
// in data whose framing and checksum hold — computed apart from
// ReplayLog, as the reference for what recovery may never cut into.
func walValidPrefix(data []byte) (ends []int) {
	off := 0
	for {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 || n == 0 || n > maxWALRecord || uint64(len(data)-off-k) < walHeaderLen+n {
			return ends
		}
		payload := data[off+k+walHeaderLen:][:n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+k:]) {
			return ends
		}
		off += k + walHeaderLen + int(n)
		ends = append(ends, off)
	}
}

// sampleWALEvents returns a small binlog with every row-event kind.
func sampleWALEvents(t testing.TB) []Event {
	t.Helper()
	db := Open("src")
	tab := mustTable(t, db, "s")
	db.Do(func() error {
		for i := 0; i < 12; i++ {
			tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": i, "wall": float64(i) / 2})
		}
		updateCols(tab, int64(5), map[string]any{"cores": 999})
		tab.DeleteByKey(int64(7))
		return nil
	})
	evs, err := db.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func gobWALRecord(t testing.TB, ev Event) []byte {
	t.Helper()
	var p bytes.Buffer
	if err := gob.NewEncoder(&p).Encode(ev); err != nil {
		t.Fatal(err)
	}
	return walRecord(p.Bytes())
}

// binaryWALRecord frames one event as a record of its own, as builds
// before binlog blocks wrote every record.
func binaryWALRecord(ev Event) []byte {
	return walRecord(AppendEvents([]byte{walBinary}, []Event{ev}))
}

// TestWALTearInsideABlockLosesTheBlock: a record holds one block, a
// commit of many events. A tear anywhere inside it loses all of that
// block's events and none of the records before it, and the recovered
// binlog ends at the last LSN the WAL keeps — the LSN its writer goes
// on from.
func TestWALTearInsideABlockLosesTheBlock(t *testing.T) {
	path := walPath(t)
	db := Open("sat")
	w, err := OpenLogWriterOpts(db, path, 0, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab := mustTable(t, db, "s")
	insertEach(t, db, tab, 0, 3)
	const blockRows = 40
	db.Do(func() error {
		for i := 100; i < 100+blockRows; i++ {
			tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": i, "wall": 1.0})
		}
		return nil
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := walValidPrefix(file)
	if len(ends) != 6 || ends[5] != len(file) { // schema, table, 3 inserts, the block
		t.Fatalf("WAL holds %d records ending at %v of %d bytes, want 6: the block must be one record", len(ends), ends, len(file))
	}
	const wantLast = 5 // schema, table, 3 single inserts
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		cut := ends[4] + 1 + rng.Intn(ends[5]-ends[4]-1)
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, file[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, last, err := recoverDB("sat", torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := rec.Count("s", "jobs"); got != 3 {
			t.Errorf("cut %d inside the block: recovered %d rows, want the 3 before it", cut, got)
		}
		if last != wantLast || rec.Binlog().Last() != last {
			t.Errorf("cut %d: recovery reported LSN %d, binlog head %d, want both %d", cut, last, rec.Binlog().Last(), wantLast)
		}
		if info, _ := os.Stat(torn); info.Size() != int64(ends[4]) {
			t.Errorf("cut %d: recovery left %d bytes, want the %d before the block", cut, info.Size(), ends[4])
		}
	}
}

// TestReplayLogReadsOneEventRecords: a WAL of one-event records, what
// builds before binlog blocks wrote, replays to the same state and
// head as a WAL of blocks holding the same events.
func TestReplayLogReadsOneEventRecords(t *testing.T) {
	evs := sampleWALEvents(t)
	var single []byte
	for _, ev := range evs {
		single = append(single, binaryWALRecord(ev)...)
	}
	blocks := walPath(t)
	db := Open("src")
	w, err := OpenLogWriterOpts(db, blocks, 0, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyAll(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	singlePath := filepath.Join(t.TempDir(), "single.wal")
	if err := os.WriteFile(singlePath, single, 0o644); err != nil {
		t.Fatal(err)
	}
	fromSingle, lastSingle, err := recoverDB("sat", singlePath)
	if err != nil {
		t.Fatal(err)
	}
	fromBlocks, lastBlocks, err := recoverDB("sat", blocks)
	if err != nil {
		t.Fatal(err)
	}
	if want := evs[len(evs)-1].LSN; lastSingle != want || lastBlocks != want || fromSingle.Binlog().Last() != want {
		t.Fatalf("replay ends at LSN %d (one-event records, head %d) and %d (blocks), want %d",
			lastSingle, fromSingle.Binlog().Last(), lastBlocks, want)
	}
	var a, b bytes.Buffer
	if err := fromSingle.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := fromBlocks.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("one-event records and blocks of the same events replay to different states")
	}
	if fromSingle.Count("s", "jobs") != 11 {
		t.Fatalf("replayed %d rows, want 11", fromSingle.Count("s", "jobs"))
	}
}

// TestReplayLogRefusesGobRecords: a WAL record without the binary tag
// is what a build before 8.1 wrote — one gob Event per record. Replay
// no longer reads that form: it applies the binary records before it,
// refuses the gob one as undecodable with an error naming the format
// and where it stopped, and never truncates it as a torn tail — the
// file stays byte for byte as it was, for the operator to re-ingest.
func TestReplayLogRefusesGobRecords(t *testing.T) {
	evs := sampleWALEvents(t)
	for _, good := range []int{0, len(evs) / 2} { // binary records before the first gob one
		var file []byte
		for i, ev := range evs {
			if i < good {
				file = append(file, binaryWALRecord(ev)...)
			} else {
				file = append(file, gobWALRecord(t, ev)...)
			}
		}
		path := walPath(t)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		db := Open("sat")
		last, err := ReplayLog(db, path)
		if err == nil {
			t.Fatalf("%d binary records then gob ones: replay succeeded (last LSN %d)", good, last)
		}
		offset := 0
		if good > 0 {
			offset = walValidPrefix(file)[good-1]
		}
		for _, want := range []string{fmt.Sprintf("offset %d", offset), "before 8.1", "gob", "file left untouched"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%d binary records then gob ones: error %q does not name %q", good, err, want)
			}
		}
		var wantLast uint64
		if good > 0 {
			wantLast = evs[good-1].LSN
		}
		if last != wantLast || db.Binlog().Last() != wantLast {
			t.Errorf("%d binary records then gob ones: replay stopped at LSN %d (binlog %d), want %d",
				good, last, db.Binlog().Last(), wantLast)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, file) {
			t.Errorf("%d binary records then gob ones: recovery changed the file (%d bytes, was %d)", good, len(after), len(file))
		}
	}
}

// TestReplayLogKeepsWhatItCannotDecode: a record whose checksum holds
// but whose payload does not decode is not a torn write. Recovery must
// report it — naming where — and leave the file byte for byte as it
// was, because the records after it are intact; it used to truncate
// there and silently delete them.
func TestReplayLogKeepsWhatItCannotDecode(t *testing.T) {
	evs := sampleWALEvents(t)
	const good = 6 // records before the bad one
	for name, bad := range map[string][]byte{
		"binary tag, malformed events": walRecord([]byte{walBinary, 1, 1, 0xff}),
		"no tag, not gob either":       walRecord([]byte("\x07garbage that is no gob stream")),
	} {
		var file []byte
		for i, ev := range evs {
			if i == good {
				file = append(file, bad...)
			}
			file = append(file, binaryWALRecord(ev)...)
		}
		path := walPath(t)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if ends := walValidPrefix(file); len(ends) != len(evs)+1 {
			t.Fatalf("%s: test file has %d checksum-valid records, want %d", name, len(ends), len(evs)+1)
		}
		db := Open("sat")
		last, err := ReplayLog(db, path)
		if err == nil {
			t.Fatalf("%s: replay succeeded past an undecodable record (last LSN %d)", name, last)
		}
		offset := fmt.Sprintf("offset %d", walValidPrefix(file)[good-1])
		if !strings.Contains(err.Error(), offset) || !strings.Contains(err.Error(), fmt.Sprintf("LSN %d", evs[good-1].LSN)) {
			t.Errorf("%s: error %q does not name %s and LSN %d", name, err, offset, evs[good-1].LSN)
		}
		if last != evs[good-1].LSN || db.Binlog().Last() != last {
			t.Errorf("%s: replay stopped at LSN %d (binlog %d), want %d", name, last, db.Binlog().Last(), evs[good-1].LSN)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, file) {
			t.Errorf("%s: recovery changed the file (%d bytes, was %d): the %d records after the bad one are lost",
				name, len(after), len(file), len(evs)-good)
		}
	}
}

// vectorCodedWAL is the WAL of a DB whose commits coded their row
// events from the table's vectors: inserts, an update and a delete in
// one commit of two blocks, one record per block as the writer writes
// them.
func vectorCodedWAL(tb testing.TB) []byte {
	db := Open("sat")
	tab := mustTable(tb, db, "s")
	err := db.Do(func() error {
		for i := range maxBlockEvents + 20 {
			if err := tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": float64(i % 3)}); err != nil {
				return err
			}
		}
		if err := updateCols(tab, int64(3), map[string]any{"cores": 99}); err != nil {
			return err
		}
		tab.DeleteByKey(int64(5))
		return nil
	})
	if err != nil || len(db.binlog.blocks) < 4 {
		tb.Fatalf("%d blocks: %v", len(db.binlog.blocks), err)
	}
	var file []byte
	for _, k := range db.binlog.blocks {
		file = append(file, walRecord(append([]byte{walBinary}, k.buf...))...)
	}
	return file
}

// FuzzReplayLog feeds whole WAL files to recovery: it never panics,
// the file never grows, what remains is a prefix of what was there,
// and it is never cut below the end of the last checksum-valid record
// of the leading valid run. Among the seeds are records whose one
// string reference names no string its column spelled
// (BadStringRefs), alone and after a file of valid records.
func FuzzReplayLog(f *testing.F) {
	evs := sampleWALEvents(f)
	var binaryFile, gobFile []byte
	for _, ev := range evs {
		binaryFile = append(binaryFile, binaryWALRecord(ev)...)
		gobFile = append(gobFile, gobWALRecord(f, ev)...)
	}
	f.Add(binaryFile)
	f.Add(gobFile)
	f.Add(binaryFile[:len(binaryFile)-7])
	f.Add(append(append([]byte(nil), gobFile[:len(gobFile)/2]...), binaryFile[len(binaryFile)/3:]...))
	f.Add(walRecord([]byte{walBinary, 1, 1, 0xff}))
	f.Add(walRecord(AppendEvents([]byte{walBinary}, evs))) // one block of every event
	f.Add(append(walRecord(AppendEvents([]byte{walBinary}, evs[:2])), walRecord(AppendEvents([]byte{walBinary}, evs[2:]))...))
	f.Add(vectorCodedWAL(f))
	for _, b := range BadStringRefs() {
		bad := walRecord(append([]byte{walBinary}, b...))
		f.Add(bad)
		f.Add(append(bytes.Clone(binaryFile), bad...))
	}
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "fuzz.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keep := 0
		if ends := walValidPrefix(data); len(ends) > 0 {
			keep = ends[len(ends)-1]
		}
		_, err := ReplayLog(Open("fuzz"), path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(after) > len(data) || !bytes.Equal(after, data[:len(after)]) {
			t.Fatalf("recovery rewrote the file: %d bytes before, %d after", len(data), len(after))
		}
		if len(after) < keep {
			t.Fatalf("recovery cut the file to %d bytes, below the %d its checksum-valid records span (err %v)", len(after), keep, err)
		}
		if err != nil && len(after) != len(data) {
			t.Fatalf("recovery failed (%v) and still truncated the file from %d to %d bytes", err, len(data), len(after))
		}
	})
}

// TestLogWriterResumesInsideABlock: a writer opened at a position inside
// a block appends only the block's events past that position, so the
// file replays every event once.
func TestLogWriterResumesInsideABlock(t *testing.T) {
	db := Open("sat")
	tab := mustTable(t, db, "s") // LSNs 1 and 2
	db.Do(func() error {         // one block, LSNs 3..12
		for i := 0; i < 10; i++ {
			tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
		}
		return nil
	})
	all, err := db.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var file []byte
	for _, ev := range all[:7] { // up to LSN 7, inside the block
		file = append(file, binaryWALRecord(ev)...)
	}
	path := walPath(t)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenLogWriterOpts(db, path, 7, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, last, err := recoverDB("sat", path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Count("s", "jobs"); got != 10 || last != 12 {
		t.Fatalf("replayed %d rows up to LSN %d, want 10 up to 12", got, last)
	}
}
