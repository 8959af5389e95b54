package aggregate_test

import (
	"fmt"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/ingest"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
)

// TestIngestJobRecordsAllocationCeiling is the typed ingest path's
// allocation-regression guard, beside TestColdChartQueryAllocationCeiling:
// a batch of job records goes from the shredder's structs into typed
// vectors (jobs.Batch), into the fact table (InsertColumns), into the
// binlog (coded from the vectors) and into the aggregates (folded from
// the write's view), and no layer boxes a row. The ceiling is set ~4x
// above the measured cost (about 430 allocations per batch of 500: a
// few hundred per batch, for the payloads, the fold's groups and vector
// growth), and far below one per cell: boxing each fact's 17 cells on
// the way, as a row path does, costs about 20 allocations per record,
// 10 000 per batch.
func TestIngestJobRecordsAllocationCeiling(t *testing.T) {
	const batch, runs = 500, 8
	db := warehouse.Open("allocguard")
	info := jobs.RealmInfo()
	if _, err := realm.Setup(db, info); err != nil {
		t.Fatal(err)
	}
	eng, err := aggregate.New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	conv := su.NewConverter()
	conv.Register("r1", 1.0)
	p := &ingest.Pipeline{DB: db, Converter: conv, Engine: eng}
	// Every run ingests new jobs that end in the same few groups: the
	// cost measured is the path's, not the aggregation tables' growth.
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	batches := make([][]shredder.JobRecord, runs+1)
	for b := range batches {
		for i := range batch {
			id := int64(b*batch + i + 1)
			end := base.Add(time.Duration(i%24) * time.Hour)
			batches[b] = append(batches[b], shredder.JobRecord{LocalJobID: id, User: fmt.Sprintf("u%d", i%8),
				Account: "a", Resource: "r1", Queue: "batch", Nodes: 1, Cores: int64(1 + i%4),
				Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end, ExitState: "COMPLETED"})
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		st, err := p.IngestJobRecords(batches[next])
		next++
		if err != nil || st.Ingested != batch {
			t.Fatalf("ingest: %v, %v", st, err)
		}
	})
	t.Logf("%.0f allocations per batch of %d job records (%.2f per record)", allocs, batch, allocs/batch)
	const ceiling = 1750
	if allocs > ceiling {
		t.Fatalf("ingesting %d job records allocated %.0f times (%.2f per record); the ceiling is %d: a layer boxes rows again",
			batch, allocs, allocs/batch, ceiling)
	}
}
