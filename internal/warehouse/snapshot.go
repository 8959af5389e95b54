package warehouse

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// Snapshot persistence. A snapshot stores each table's contents in
// columnar form — one typed vector per column — matching the in-memory
// layout, so it is written straight from the published TableData
// without materializing rows. The format doubles as the "database
// dump" used by loose federation (dump / ship / batch-load, paper
// §II-C2).

// snapshotVersion is the only on-disk format version Restore accepts.
// The row-oriented format that preceded it carried no version field
// and decodes as version 0.
const snapshotVersion = 2

// snapshot is the gob wire form of an entire DB (or a subset of its
// schemas).
type snapshot struct {
	Version int
	Name    string
	LastLSN uint64
	Schemas []schemaSnapshot
}

type schemaSnapshot struct {
	Name   string
	Tables []tableSnapshot
}

type tableSnapshot struct {
	Def  TableDef
	Data *ColumnData
}

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
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	db.mu.RLock()
	snap := snapshot{Version: snapshotVersion, Name: db.name, LastLSN: db.binlog.Last()}
	type pending struct {
		schema int
		table  int
		td     *TableData
	}
	var work []pending
	for _, sn := range db.schemasSortedLocked() {
		if names != nil && !want[sn] {
			continue
		}
		s := db.schemas[sn]
		ss := schemaSnapshot{Name: sn}
		for _, tn := range s.tablesSortedLocked() {
			t := s.tables[tn]
			ss.Tables = append(ss.Tables, tableSnapshot{Def: t.def.Clone()})
			work = append(work, pending{schema: len(snap.Schemas), table: len(ss.Tables) - 1, td: t.Data()})
		}
		snap.Schemas = append(snap.Schemas, ss)
	}
	db.mu.RUnlock()
	for _, p := range work {
		snap.Schemas[p.schema].Tables[p.table].Data = p.td.columnData()
	}
	return gob.NewEncoder(w).Encode(snap)
}

func (db *DB) schemasSortedLocked() []string {
	names := make([]string, 0, len(db.schemas))
	for n := range db.schemas {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func (s *Schema) tablesSortedLocked() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Restore loads a snapshot into the DB, creating the schemas and
// tables it contains. Existing schemas with the same names are
// replaced. Returns the binlog position the snapshot was taken at.
func (db *DB) Restore(r io.Reader) (uint64, error) {
	return db.RestoreRenamed(r, nil)
}

// RestoreRenamed loads a snapshot, renaming schemas through the given
// map (identity for schemas not in the map). Renaming on load is how a
// loose-federation hub lands each satellite's dump in a uniquely named
// schema, mirroring Tungsten's rename-on-transfer feature.
//
// A stream of any other format version is rejected before the DB is
// touched. Payloads are validated strictly against each table's
// definition — mismatched types, lengths or nullability fail the
// restore with a descriptive error rather than loading as zeroed
// values.
func (db *DB) RestoreRenamed(r io.Reader, rename map[string]string) (uint64, error) {
	defer mRestoreSeconds.ObserveSince(time.Now())
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("warehouse: restore: %w", err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("warehouse: restore: unsupported snapshot version %d", snap.Version)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	for _, ss := range snap.Schemas {
		name := ss.Name
		if rename != nil {
			if to, ok := rename[name]; ok {
				name = to
			}
		}
		s := db.createSchemaLocked(name)
		for _, ts := range ss.Tables {
			t, err := s.createTableLocked(ts.Def)
			if err != nil {
				return 0, err
			}
			if err := t.ReplaceAllColumns(ts.Data); err != nil {
				return 0, err
			}
		}
	}
	return snap.LastLSN, nil
}

// SaveFile snapshots the DB to a file path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Snapshot(f); err != nil {
		return err
	}
	return f.Close()
}
