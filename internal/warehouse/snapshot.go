package warehouse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Snapshot persistence. A snapshot is the event stream that rebuilds
// the DB: a header, then one buffer of the binary event codec
// (eventcodec.go) holding a CREATE_SCHEMA per schema and, per table, a
// CREATE_TABLE and a LOAD of its live rows. The LOADs carry each
// table's column vectors as they are stored, so a snapshot is written
// straight from the published TableData without materializing rows.
// The format doubles as the "database dump" used by loose federation
// (dump / ship / batch-load, paper §II-C2).
//
//	magic "XDMFSNAP" | uvarint(version) | string(DB name) | uvarint(binlog LSN) | events

// snapshotMagic opens every snapshot of version 3 and later.
const snapshotMagic = "XDMFSNAP"

// snapshotVersion is the only format version Restore accepts. Versions
// 1 and 2 were gob streams with no magic; they are refused.
const snapshotVersion = 3

// Snapshot writes the full DB state to w. The snapshot records the
// binlog position it corresponds to, so a restore followed by binlog
// replay from that position is consistent.
func (db *DB) Snapshot(w io.Writer) error {
	return db.SnapshotSchemas(w, nil)
}

// SnapshotSchemas writes the named schemas (all when names is nil).
// The read lock (so no writer publishes mid-collection) is held only
// long enough to collect the published table snapshots — a few pointer
// loads — and the (potentially large) encode runs against those
// immutable snapshots with no lock held, so dumps never stall writers
// or other readers.
func (db *DB) SnapshotSchemas(w io.Writer, names []string) error {
	defer mSnapshotSeconds.ObserveSince(time.Now())
	db.mu.RLock()
	lsn := db.binlog.Last()
	var evs []Event
	var data []*TableData // the published snapshot of each LOAD in evs, in order
	for _, sn := range sortedKeys(db.schemas) {
		if names != nil && !slices.Contains(names, sn) {
			continue
		}
		evs = append(evs, Event{Kind: EvCreateSchema, Schema: sn})
		s := db.schemas[sn]
		for _, tn := range sortedKeys(s.tables) {
			t := s.tables[tn]
			def := t.def.Clone()
			evs = append(evs, Event{Kind: EvCreateTable, Schema: sn, Table: tn, Def: &def},
				Event{Kind: EvLoad, Schema: sn, Table: tn})
			data = append(data, t.Data())
		}
	}
	db.mu.RUnlock()
	for i := range evs {
		evs[i].LSN = uint64(i + 1) // ignored on restore; consecutive numbers cost nothing
		if evs[i].Kind == EvLoad {
			evs[i].Cols, data = data[0].ColumnData(), data[1:]
		}
	}
	b := binary.AppendUvarint([]byte(snapshotMagic), snapshotVersion)
	b = appendString(b, db.name)
	b = binary.AppendUvarint(b, lsn)
	_, err := w.Write(AppendEvents(b, evs))
	return err
}

// Restore loads a snapshot into the DB, creating the schemas and
// tables it contains that do not exist yet and replacing the contents
// of every table it holds. Returns the binlog position the snapshot
// was taken at.
func (db *DB) Restore(r io.Reader) (uint64, error) {
	return db.RestoreRenamed(r, nil)
}

// RestoreRenamed loads a snapshot, renaming schemas through the given
// map (identity for schemas not in the map). Renaming on load is how a
// loose-federation hub lands each satellite's dump in a uniquely named
// schema, mirroring Tungsten's rename-on-transfer feature.
//
// The whole stream is read and decoded before the DB is touched: a
// stream of another format version, or one that does not decode, is
// rejected with the DB as it was. The events are then applied as one
// write transaction (ApplyAll), so each table's payload is validated
// strictly against its definition — mismatched types, lengths or
// nullability fail the restore with a descriptive error rather than
// loading as zeroed values.
func (db *DB) RestoreRenamed(r io.Reader, rename map[string]string) (uint64, error) {
	defer mRestoreSeconds.ObserveSince(time.Now())
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("warehouse: restore: %w", err)
	}
	lsn, evs, err := decodeSnapshot(b)
	if err != nil {
		return 0, fmt.Errorf("warehouse: restore: %w", err)
	}
	for i := range evs {
		if to, ok := rename[evs[i].Schema]; ok {
			evs[i].Schema = to
		}
	}
	if _, err := db.ApplyAll(evs); err != nil {
		return 0, fmt.Errorf("warehouse: restore: %w", err)
	}
	return lsn, nil
}

// decodeSnapshot checks a snapshot's header and decodes its events,
// which may only create schemas and tables and load them.
func decodeSnapshot(b []byte) (uint64, []Event, error) {
	rest, ok := bytes.CutPrefix(b, []byte(snapshotMagic))
	if !ok {
		return 0, nil, fmt.Errorf("not a snapshot of version %d (no %q header); snapshots of versions 1 and 2 were gob streams and are no longer read: re-ingest the data",
			snapshotVersion, snapshotMagic)
	}
	rd := eventReader{b: rest}
	if v := rd.uvarint(); rd.err == nil && v != snapshotVersion {
		return 0, nil, fmt.Errorf("unsupported snapshot version %d (this build reads version %d)", v, snapshotVersion)
	}
	rd.string() // the name of the DB it was taken from
	lsn := rd.uvarint()
	if rd.err != nil {
		return 0, nil, fmt.Errorf("snapshot header: %w", rd.err)
	}
	evs, err := DecodeEvents(rd.b)
	if err != nil {
		return 0, nil, err
	}
	for _, ev := range evs {
		switch ev.Kind {
		case EvCreateSchema, EvCreateTable, EvLoad:
		default:
			return 0, nil, fmt.Errorf("snapshot holds a %v event for %s.%s", ev.Kind, ev.Schema, ev.Table)
		}
	}
	return lsn, evs, nil
}

// SaveFile snapshots the DB to a file path. The snapshot is written to
// a temporary file in the same directory, synced, and renamed over
// path, and the directory is synced: a save that fails or is cut short
// leaves the previous file at path whole.
func (db *DB) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // after the rename there is nothing left to remove
	err = f.Chmod(0o644)
	if err == nil {
		err = db.Snapshot(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
