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

// snapshotVersion is the only format version ReadSnapshot accepts.
// Versions 1 and 2 were gob streams with no magic; they are refused.
const snapshotVersion = 3

// Snapshot writes the full DB state to w. The snapshot records the
// binlog position it corresponds to, so a restore followed by binlog
// replay from that position is consistent.
func (db *DB) Snapshot(w io.Writer) error {
	lsn, evs := db.SnapshotEvents(nil)
	return WriteSnapshot(w, db.name, lsn, evs)
}

// SnapshotEvents returns the events that rebuild the named schemas (all
// when names is nil) and the binlog position they correspond to: a
// CREATE_SCHEMA per schema and, per table, a CREATE_TABLE and a LOAD of
// its live rows. The read lock (so no writer publishes mid-collection)
// is held only long enough to collect the published table snapshots — a
// few pointer loads — and the LOAD payloads are exported from those
// immutable snapshots with no lock held, so dumps never stall writers
// or other readers. The payloads may share the tables' vectors: do not
// mutate them.
func (db *DB) SnapshotEvents(names []string) (uint64, []Event) {
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
		if evs[i].Kind == EvLoad {
			evs[i].Cols, data = data[0].ColumnData(), data[1:]
		}
	}
	return lsn, evs
}

// WriteSnapshot writes evs to w as a snapshot of the DB named name at
// binlog position lsn. It numbers the events 1..n in place: a
// snapshot's event LSNs are ignored on read, and consecutive numbers
// cost nothing in the codec.
func WriteSnapshot(w io.Writer, name string, lsn uint64, evs []Event) error {
	defer mSnapshotSeconds.ObserveSince(time.Now())
	for i := range evs {
		evs[i].LSN = uint64(i + 1)
	}
	b := binary.AppendUvarint([]byte(snapshotMagic), snapshotVersion)
	b = appendString(b, name)
	b = binary.AppendUvarint(b, lsn)
	_, err := w.Write(AppendEvents(b, evs))
	return err
}

// ReadSnapshot reads a whole snapshot and returns the binlog position
// it was taken at and the events that rebuild its tables; applying them
// with ApplyAll restores it, and rewriting their Schema first lands the
// tables elsewhere (how a hub lands a loose member's dump in its
// fed_<instance> schema, Tungsten's rename-on-transfer).
//
// Nothing is applied here, so a stream that is refused touches no DB:
// one of another format version, one that does not decode, one with an
// event other than CREATE_SCHEMA, CREATE_TABLE and LOAD, and one with a
// LOAD whose payload does not match the CREATE_TABLE before it — wrong
// types, lengths or nullability fail with a descriptive error rather
// than loading as zeroed values.
func ReadSnapshot(r io.Reader) (uint64, []Event, error) {
	defer mRestoreSeconds.ObserveSince(time.Now())
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, fmt.Errorf("warehouse: restore: %w", err)
	}
	lsn, evs, err := decodeSnapshot(b)
	if err != nil {
		return 0, nil, fmt.Errorf("warehouse: restore: %w", err)
	}
	return lsn, evs, nil
}

// decodeSnapshot checks a snapshot's header and decodes its events,
// which may only create schemas and tables and load each table with a
// payload its definition accepts.
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
	defs := map[string]*TableDef{} // "schema.table" -> its CREATE_TABLE's definition
	for _, ev := range evs {
		key := ev.Schema + "." + ev.Table
		switch ev.Kind {
		case EvCreateSchema:
		case EvCreateTable:
			if ev.Def == nil {
				return 0, nil, fmt.Errorf("snapshot creates %s with no definition", key)
			}
			defs[key] = ev.Def
		case EvLoad:
			def := defs[key]
			if def == nil {
				return 0, nil, fmt.Errorf("snapshot loads %s with no CREATE_TABLE before it", key)
			}
			if err := ev.Cols.Validate(*def); err != nil {
				return 0, nil, fmt.Errorf("snapshot table %s: %w", key, err)
			}
		default:
			return 0, nil, fmt.Errorf("snapshot holds a %v event for %s", ev.Kind, key)
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
