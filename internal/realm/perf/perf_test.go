package perf

import (
	"testing"

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

func TestSetupAndFederationSplit(t *testing.T) {
	db := warehouse.Open("p")
	if err := Setup(db); err != nil {
		t.Fatal(err)
	}
	if err := Setup(db); err != nil {
		t.Fatalf("setup not idempotent: %v", err)
	}
	if got := db.Schema(SchemaName).Tables(); len(got) != 3 {
		t.Errorf("tables = %v", got)
	}
	// Federation split: only the summary federates; the timeseries and
	// scripts stay on the satellite.
	fed := FederatedTables()
	if len(fed) != 1 || fed[0] != SummaryTable {
		t.Errorf("federated tables = %v", fed)
	}
}
