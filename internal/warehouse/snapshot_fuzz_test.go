package warehouse_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

// realmSnapshots returns snapshots of a satellite warehouse: every
// realm's Setup with facts ingested into Jobs, Cloud and Storage, their
// Derived aggregation tables, and a schema holding a table of all five
// column types with NULLs, an empty table and a Derived table. The
// first is the whole DB; one more per schema follows.
func realmSnapshots(t testing.TB) [][]byte {
	t.Helper()
	sat, err := core.NewSatellite(config.InstanceConfig{Name: "site", Version: core.Version,
		Resources:         []config.ResourceConfig{{Name: "r", Type: "hpc", SUFactor: 1}},
		AggregationLevels: []config.AggregationLevels{config.InstanceAWallTime(), config.CloudVMMemory()}})
	if err != nil {
		t.Fatal(err)
	}
	db := sat.DB
	recs := workload.GenerateJobs(workload.XSEDE2017Models()[0], 10, 3)[:30]
	for i := range recs {
		recs[i].Resource = "r"
	}
	if _, err := sat.Pipeline.IngestJobRecords(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := sat.Pipeline.IngestCloudEvents(workload.CCRCloud2017(4, 3), workload.CloudHorizon2017); err != nil {
		t.Fatal(err)
	}
	if _, err := sat.Pipeline.IngestStorageSnapshots(workload.CCRStorage2017(2, 3)[:10]); err != nil {
		t.Fatal(err)
	}
	every := warehouse.TableDef{Name: "every", PrimaryKey: []string{"i"},
		Columns: []warehouse.Column{{Name: "i", Type: warehouse.TypeInt}, {Name: "f", Type: warehouse.TypeFloat, Nullable: true},
			{Name: "s", Type: warehouse.TypeString, Nullable: true}, {Name: "b", Type: warehouse.TypeBool, Nullable: true},
			{Name: "t", Type: warehouse.TypeTime, Nullable: true}}}
	empty := warehouse.TableDef{Name: "empty", Columns: []warehouse.Column{{Name: "i", Type: warehouse.TypeInt}}}
	derived := warehouse.TableDef{Name: "derived", Derived: true, Columns: []warehouse.Column{{Name: "f", Type: warehouse.TypeFloat}}}
	x := db.EnsureSchema("x")
	for _, def := range []warehouse.TableDef{every, empty, derived} {
		if _, err := x.EnsureTable(def); err != nil {
			t.Fatal(err)
		}
	}
	ts := time.Date(2017, 3, 1, 12, 0, 0, 5, time.UTC)
	for _, row := range [][]any{
		{int64(1), 1.5, "alpha", true, ts},
		{int64(2), nil, nil, nil, nil},
		{int64(3), math.Copysign(0, -1), "", false, time.Unix(0, math.MinInt64)}, // the earliest time a column holds
		{int64(4), 1.5, "alpha", true, ts},
	} {
		if err := db.InsertRow("x", "every", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertRow("x", "derived", []any{2.5}); err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	if err := db.Snapshot(&all); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{all.Bytes()}
	for _, sn := range db.Schemas() {
		var one bytes.Buffer
		lsn, evs := db.SnapshotEvents([]string{sn})
		if err := warehouse.WriteSnapshot(&one, db.Name(), lsn, evs); err != nil {
			t.Fatal(err)
		}
		out = append(out, one.Bytes())
	}
	return out
}

// gobSnapshotV2 is the shape of the gob snapshots this build refuses.
type gobSnapshotV2 struct {
	Version int
	Name    string
	LastLSN uint64
	Schemas []struct{ Name string }
}

// FuzzRestoreSnapshot feeds arbitrary bytes to a restore — ReadSnapshot,
// then ApplyAll of its events into an empty DB: it returns an error or
// succeeds, and never panics. A snapshot it restores is a fixed point:
// the restored DB snapshots to bytes that restore to a DB that snapshots
// to the same bytes. The seeds are real snapshots of
// every realm (whole, then schema by schema), one whose CREATE_TABLE
// carries an index list (legacyIndexSnapshot), a cut-short one, an
// empty input, a gob snapshot of version 2, and snapshots whose one
// string reference names no string its column spelled (BadStringRefs).
func FuzzRestoreSnapshot(f *testing.F) {
	restore := func(data []byte) (*warehouse.DB, error) {
		_, evs, err := warehouse.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		db := warehouse.OpenOptions("restored", warehouse.Options{NoBinlog: true})
		_, err = db.ApplyAll(evs)
		return db, err
	}
	snaps := append(realmSnapshots(f), legacyIndexSnapshot)
	for _, b := range snaps {
		if _, err := restore(b); err != nil {
			f.Fatalf("a seed snapshot does not restore: %v", err)
		}
		f.Add(b)
	}
	f.Add(snaps[0][:len(snaps[0])/2])
	f.Add([]byte{})
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(gobSnapshotV2{Version: 2, Name: "old", LastLSN: 41,
		Schemas: []struct{ Name string }{{Name: "modw"}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	for _, b := range warehouse.BadStringRefs() {
		f.Add(warehouse.SnapshotOf(b))
	}
	snapshot := func(t *testing.T, data []byte) []byte {
		db, err := restore(data)
		if err != nil {
			return nil
		}
		var out bytes.Buffer
		if err := db.Snapshot(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		once := snapshot(t, data)
		if once == nil {
			return
		}
		if twice := snapshot(t, once); !bytes.Equal(twice, once) {
			t.Fatalf("a restored snapshot is no fixed point: %d bytes, then %d", len(once), len(twice))
		}
	})
}
