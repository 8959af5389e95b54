package aggregate

import (
	"testing"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/warehouse"
)

// TestSumLastSemantics: daily storage snapshots queried at month
// granularity must report the latest snapshot per user summed across
// users — never the sum over every daily sample.
func TestSumLastSemantics(t *testing.T) {
	db := warehouse.Open("s")
	stTab, err := realm.Setup(db, storage.RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := storage.RealmInfo()
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	// Two users, daily snapshots for ten days of March; file counts
	// grow by 10 per day from different baselines.
	for day := 1; day <= 10; day++ {
		for u, base := range map[string]int64{"alice": 1000, "bob": 5000} {
			snap := storage.Snapshot{
				Resource: "fs", ResourceType: "persistent", Mountpoint: "/m",
				User: u, PI: "p",
				Timestamp:     time.Date(2017, 3, day, 6, 0, 0, 0, time.UTC),
				FileCount:     base + int64(day)*10,
				LogicalBytes:  base * 100,
				PhysicalBytes: base * 140,
			}
			if err := db.Do(func() error { return stTab.UpsertRow(storage.FactValues(snap)) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.Reaggregate(info, []string{storage.SchemaName}); err != nil {
		t.Fatal(err)
	}

	series, err := eng.Query(info, Request{MetricID: storage.MetricFileCount, Period: Month})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	// Latest snapshots: alice 1100, bob 5100 → 6200. A plain SUM would
	// report ~63k (ten days × two users).
	if got := series[0].Aggregate; got != 6200 {
		t.Errorf("monthly file count = %g, want 6200 (sum of latest per user)", got)
	}

	// Day granularity: each day is its own cell, so the value equals
	// that day's sum.
	daySeries, err := eng.Query(info, Request{MetricID: storage.MetricFileCount, Period: Day,
		StartKey: 20170301, EndKey: 20170301})
	if err != nil {
		t.Fatal(err)
	}
	if got := daySeries[0].Aggregate; got != 1010+5010 {
		t.Errorf("day-1 file count = %g, want 6020", got)
	}

	// Out-of-order ingestion must not regress the "last" value: re-aggregate
	// with a stale sample arriving after newer ones.
	stale := storage.Snapshot{
		Resource: "fs", ResourceType: "persistent", Mountpoint: "/m",
		User: "alice", PI: "p",
		Timestamp: time.Date(2017, 3, 2, 23, 0, 0, 0, time.UTC),
		FileCount: 1, LogicalBytes: 1, PhysicalBytes: 1,
	}
	if err := db.Do(func() error { return stTab.UpsertRow(storage.FactValues(stale)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reaggregate(info, []string{storage.SchemaName}); err != nil {
		t.Fatal(err)
	}
	series, _ = eng.Query(info, Request{MetricID: storage.MetricFileCount, Period: Month})
	// Day 2's record was replaced (same PK resource/user/day) by the
	// stale-looking one with count 1, but the month's LATEST record is
	// still day 10 (1100); bob unchanged.
	if got := series[0].Aggregate; got != 6200 {
		t.Errorf("after stale arrival = %g, want 6200", got)
	}
}
