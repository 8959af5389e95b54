package storage

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

func snap() Snapshot {
	return Snapshot{
		Resource: "isilon-home", ResourceType: "persistent", Mountpoint: "/home",
		User: "alice", PI: "smith",
		Timestamp:     time.Date(2017, 3, 15, 6, 0, 0, 0, time.UTC),
		FileCount:     120000,
		LogicalBytes:  5 << 30,
		PhysicalBytes: 7 << 30,
		SoftThreshold: 10 << 30,
		HardThreshold: 12 << 30,
	}
}

func TestRealmInfoValid(t *testing.T) {
	if err := RealmInfo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotValidate(t *testing.T) {
	if err := snap().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	bad := []func(*Snapshot){
		func(s *Snapshot) { s.Resource = "" },
		func(s *Snapshot) { s.ResourceType = "volatile" },
		func(s *Snapshot) { s.Mountpoint = "" },
		func(s *Snapshot) { s.User = "" },
		func(s *Snapshot) { s.Timestamp = time.Time{} },
		func(s *Snapshot) { s.FileCount = -1 },
		func(s *Snapshot) { s.LogicalBytes = -1 },
		func(s *Snapshot) { s.SoftThreshold = -5 },
		func(s *Snapshot) { s.SoftThreshold = s.HardThreshold + 1 },
	}
	for i, mutate := range bad {
		s := snap()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestQuotaUtilization(t *testing.T) {
	s := snap()
	if got := s.QuotaUtilization(); got != 0.5 {
		t.Errorf("quota util = %g, want 0.5", got)
	}
	s.SoftThreshold = 0
	if got := s.QuotaUtilization(); got != 0 {
		t.Errorf("no quota util = %g, want 0", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []Snapshot{snap(), func() Snapshot { s := snap(); s.User = "bob"; return s }()}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestParseJSONRejectsInvalidDocument(t *testing.T) {
	cases := []string{
		`{not json`,
		`[{"resource":"x"}]`, // fails schema
		`[{"resource":"x","resource_type":"scratch","mountpoint":"/x","user":"u","dt":"2017-01-01T00:00:00Z","file_count":1,"unknown_field":1}]`,
	}
	for i, c := range cases {
		if _, err := ParseJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseJSONAllOrNothing(t *testing.T) {
	doc := `[
	 {"resource":"fs","resource_type":"scratch","mountpoint":"/s","user":"u","pi":"p","dt":"2017-01-01T00:00:00Z","file_count":1,"logical_usage":1,"physical_usage":1,"soft_threshold":0,"hard_threshold":0},
	 {"resource":"","resource_type":"scratch","mountpoint":"/s","user":"u","pi":"p","dt":"2017-01-01T00:00:00Z","file_count":1,"logical_usage":1,"physical_usage":1,"soft_threshold":0,"hard_threshold":0}
	]`
	if _, err := ParseJSON(strings.NewReader(doc)); err == nil {
		t.Error("document with one invalid record must be rejected whole")
	}
}

func TestFactRowAndSetup(t *testing.T) {
	db := warehouse.Open("s")
	tab, err := realm.Setup(db, RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func() error { return tab.UpsertRow(FactValues(snap())) }); err != nil {
		t.Fatal(err)
	}
	db.View(func() error {
		row, ok := tab.GetByKey("isilon-home", "alice", int64(20170315))
		if !ok {
			t.Fatal("snapshot row not stored under its day key")
		}
		if row.Int("month_key") != 201703 {
			t.Errorf("month key = %v", row.Get("month_key"))
		}
		if row.Float("quota_util") != 0.5 {
			t.Errorf("quota util col = %v", row.Get("quota_util"))
		}
		return nil
	})
	// A second sample the same day replaces the first (sub-daily
	// sampling collapses to the day's latest state).
	s2 := snap()
	s2.Timestamp = s2.Timestamp.Add(6 * time.Hour)
	s2.FileCount = 125000
	if err := db.Do(func() error { return tab.UpsertRow(FactValues(s2)) }); err != nil {
		t.Fatal(err)
	}
	if db.Count(SchemaName, FactTable) != 1 {
		t.Errorf("count = %d, want 1 (same-day dedup)", db.Count(SchemaName, FactTable))
	}
	db.View(func() error {
		r, ok := tab.GetByKey("isilon-home", "alice", int64(20170315))
		if !ok || r.Int("file_count") != 125000 {
			t.Errorf("latest sample should win: %v", r.Values())
		}
		return nil
	})
}
