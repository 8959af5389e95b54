package jobs

import (
	"testing"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
)

func record() shredder.JobRecord {
	return shredder.JobRecord{
		LocalJobID: 100, JobName: "sim", User: "alice", Account: "chem", Resource: "comet",
		Queue: "compute", Nodes: 2, Cores: 48,
		Submit:    time.Date(2017, 6, 1, 8, 0, 0, 0, time.UTC),
		Start:     time.Date(2017, 6, 1, 9, 0, 0, 0, time.UTC),
		End:       time.Date(2017, 6, 1, 11, 0, 0, 0, time.UTC),
		ExitState: "COMPLETED",
	}
}

func TestRealmInfoValid(t *testing.T) {
	if err := RealmInfo().Validate(); err != nil {
		t.Fatalf("realm info invalid: %v", err)
	}
}

func TestDayMonthKeys(t *testing.T) {
	ts := time.Date(2017, 11, 3, 23, 59, 0, 0, time.UTC)
	if got := realm.DayKey(ts); got != 20171103 {
		t.Errorf("DayKey = %d", got)
	}
	if got := realm.MonthKey(ts); got != 201711 {
		t.Errorf("MonthKey = %d", got)
	}
	// Non-UTC times normalize to UTC.
	est := time.FixedZone("EST", -5*3600)
	ts2 := time.Date(2017, 12, 31, 22, 0, 0, 0, est) // = 2018-01-01 03:00 UTC
	if got := realm.MonthKey(ts2); got != 201801 {
		t.Errorf("MonthKey across zone = %d, want 201801", got)
	}
}

func TestFactFromRecord(t *testing.T) {
	conv := su.NewConverter()
	conv.Register("comet", 0.8)
	row, err := FactFromRecord(record(), conv)
	if err != nil {
		t.Fatal(err)
	}
	if row[ColWallSec] != 7200.0 {
		t.Errorf("wall = %v", row[ColWallSec])
	}
	if row[ColWaitSec] != 3600.0 {
		t.Errorf("wait = %v", row[ColWaitSec])
	}
	if row[ColCPUHours] != 96.0 { // 48 cores * 2 h
		t.Errorf("cpu hours = %v", row[ColCPUHours])
	}
	if xdsu := row[ColXDSU].(float64); xdsu < 76.8-1e-9 || xdsu > 76.8+1e-9 {
		t.Errorf("xdsu = %v", row[ColXDSU])
	}
	if row[ColDayKey] != int64(20170601) || row[ColMonthKey] != int64(201706) {
		t.Errorf("keys = %v %v", row[ColDayKey], row[ColMonthKey])
	}
}

func TestFactFromRecordUnknownResource(t *testing.T) {
	conv := su.NewConverter()
	if _, err := FactFromRecord(record(), conv); err == nil {
		t.Error("unknown resource must error (no silent identity conversion)")
	}
}

func TestFactFromRecordNilConverter(t *testing.T) {
	row, err := FactFromRecord(record(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if row[ColXDSU] != 0.0 {
		t.Errorf("xdsu without converter = %v, want 0", row[ColXDSU])
	}
}

func TestFactFromRecordInvalid(t *testing.T) {
	rec := record()
	rec.User = ""
	if _, err := FactFromRecord(rec, nil); err == nil {
		t.Error("invalid record must be rejected")
	}
}

func TestSetupAndInsert(t *testing.T) {
	db := warehouse.Open("x")
	tab, err := realm.Setup(db, RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	// Setup is idempotent.
	if _, err := realm.Setup(db, RealmInfo()); err != nil {
		t.Fatalf("second Setup: %v", err)
	}
	row, _ := FactFromRecord(record(), nil)
	if err := db.Insert(SchemaName, FactTable, row); err != nil {
		t.Fatal(err)
	}
	db.View(func() error {
		r, ok := tab.GetByKey("comet", int64(100))
		if !ok {
			t.Fatal("fact row not found by (resource, job_id)")
		}
		if r.String(ColUser) != "alice" {
			t.Errorf("user = %q", r.String(ColUser))
		}
		return nil
	})
	// Same job id on a different resource must not collide.
	rec2 := record()
	rec2.Resource = "stampede"
	row2, _ := FactFromRecord(rec2, nil)
	if err := db.Insert(SchemaName, FactTable, row2); err != nil {
		t.Fatalf("cross-resource id collision: %v", err)
	}
}

// TestBatchHoldsTheFactRow: a record added to a Batch is, column by
// column of Def, the row FactRowFromRecord builds for it, and a record
// either refuses is refused by both and leaves the batch as it was.
func TestBatchHoldsTheFactRow(t *testing.T) {
	conv := su.NewConverter()
	conv.Register("comet", 0.8)
	b := NewBatch(2)
	bad := record()
	bad.Resource = "unknown"
	if err := b.Add(bad, conv); err == nil || b.Len() != 0 {
		t.Fatalf("a record without an SU factor: err %v, %d rows", err, b.Len())
	}
	if err := b.Add(record(), conv); err != nil {
		t.Fatal(err)
	}
	row, err := FactRowFromRecord(record(), conv)
	if err != nil {
		t.Fatal(err)
	}
	cd := b.Columns()
	if err := cd.Validate(Def()); err != nil || cd.Rows != 1 {
		t.Fatalf("batch of %d rows: %v", cd.Rows, err)
	}
	for i, want := range row {
		got := cd.Cols[i].Value(0)
		if w, ok := want.(time.Time); ok {
			if !w.Equal(got.(time.Time)) {
				t.Errorf("column %s: %v, want %v", cd.Names[i], got, want)
			}
		} else if got != want {
			t.Errorf("column %s: %v, want %v", cd.Names[i], got, want)
		}
	}
}
