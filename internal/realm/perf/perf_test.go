package perf

import (
	"testing"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

func TestRealmInfoValid(t *testing.T) {
	info := RealmInfo()
	if err := info.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 count metric + avg and peak per each of the nine metrics.
	if len(info.Metrics) != 1+2*len(MetricNames) {
		t.Errorf("metric count = %d", len(info.Metrics))
	}
}

func TestNineMetrics(t *testing.T) {
	if len(MetricNames) != 9 {
		t.Fatalf("the paper specifies nine job metrics; have %d", len(MetricNames))
	}
}

// TestSetupCreatesEveryTable: realm.Setup makes the one table the
// realm declares, and running it again changes nothing. That it
// federates is checked in internal/core (TestRealmCatalogue).
func TestSetupCreatesEveryTable(t *testing.T) {
	db := warehouse.Open("p")
	if _, err := realm.Setup(db, RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, RealmInfo()); err != nil {
		t.Fatalf("setup not idempotent: %v", err)
	}
	if got := db.Schema(SchemaName).Tables(); len(got) != 1 || got[0] != SummaryTable {
		t.Errorf("tables = %v", got)
	}
}
