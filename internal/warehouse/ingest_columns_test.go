package warehouse_test

import (
	"bytes"
	"fmt"
	"reflect"
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

// jobsInstance is a warehouse with the Jobs realm set up, its engine and
// a pipeline over them, whose binlog stamps every commit with one fixed
// time.
func jobsInstance(t *testing.T) *ingest.Pipeline {
	t.Helper()
	db := warehouse.Open("typed")
	db.Binlog().SetClock(func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC) })
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	eng, err := aggregate.New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Setup(jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	conv := su.NewConverter()
	conv.Register("rush", 1.0)
	conv.Register("comet", 0.75)
	return &ingest.Pipeline{DB: db, Converter: conv, Engine: eng}
}

// rowIngest ingests recs as IngestJobRecords did before a batch became
// typed columns: a boxed row per record (jobs.FactRowFromRecord), then,
// in one write, a key probe and an InsertRow per row.
func rowIngest(t *testing.T, p *ingest.Pipeline, recs []shredder.JobRecord) ingest.Stats {
	t.Helper()
	var st ingest.Stats
	var rows [][]any
	for _, rec := range recs {
		st.Parsed++
		row, err := jobs.FactRowFromRecord(rec, p.Converter)
		if err != nil {
			st.Rejected++
			st.Errors = append(st.Errors, err)
			continue
		}
		rows = append(rows, row)
	}
	tab, err := p.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Engine.Write([]string{"Jobs"}, func() error {
		for _, row := range rows {
			if _, exists := tab.GetByKey(row[1], row[0]); exists {
				st.Skipped++
				continue
			}
			if err := tab.InsertRow(row); err != nil {
				return err
			}
			st.Ingested++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// typedIngestBatches are three batches of job records: valid ones on
// two resources, records Validate refuses, one on a resource without an
// SU factor, repeats within a batch, and keys an earlier batch stored.
func typedIngestBatches() [][]shredder.JobRecord {
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	rec := func(id int64, res string, h int) shredder.JobRecord {
		end := base.Add(time.Duration(h) * time.Hour)
		return shredder.JobRecord{LocalJobID: id, User: fmt.Sprintf("u%d", id%5), Account: fmt.Sprintf("a%d", id%3),
			Resource: res, Queue: []string{"normal", "debug"}[id%2], Nodes: 1 + id%4, Cores: 8 * (1 + id%4),
			Submit: end.Add(-3 * time.Hour), Start: end.Add(-time.Duration(1+id%3) * time.Hour), End: end,
			ExitState: []string{"COMPLETED", "FAILED", ""}[id%3]}
	}
	var batches [][]shredder.JobRecord
	for b := range 3 {
		var recs []shredder.JobRecord
		for i := range 40 {
			id := int64(b*30 + i) // each batch re-sends the last 10 of the one before
			res := []string{"rush", "comet"}[i%2]
			recs = append(recs, rec(id+1, res, int(id)*7))
		}
		bad := rec(999, "rush", 1)
		bad.User = ""
		unknown := rec(998, "stampede", 1)
		backwards := rec(997, "comet", 1)
		backwards.End = backwards.Start.Add(-time.Minute)
		recs = append(recs, bad, unknown, backwards, recs[3], recs[4]) // two repeats of this batch's own
		batches = append(batches, recs)
	}
	return batches
}

// TestTypedIngestEqualsRowIngest: the same batches of job records,
// ingested as typed columns (IngestJobRecords: one jobs.Batch, one
// InsertColumns) and as boxed rows (a key probe and an InsertRow per
// row), give equal Stats, byte-equal snapshots of the whole warehouse
// (aggregation tables included) and byte-equal binlog blocks.
func TestTypedIngestEqualsRowIngest(t *testing.T) {
	typed, rows := jobsInstance(t), jobsInstance(t)
	for i, recs := range typedIngestBatches() {
		got, err := typed.IngestJobRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		want := rowIngest(t, rows, recs)
		if got.String() != want.String() || fmt.Sprint(got.Errors) != fmt.Sprint(want.Errors) {
			t.Fatalf("batch %d: typed ingest %v %v, row ingest %v %v", i, got, got.Errors, want, want.Errors)
		}
		if got.Skipped == 0 || got.Rejected != 3 {
			t.Fatalf("batch %d: %v, want repeats skipped and three records rejected", i, got)
		}
	}
	var snaps [2]bytes.Buffer
	for i, p := range []*ingest.Pipeline{typed, rows} {
		if err := p.DB.Snapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatalf("snapshots differ: typed %d bytes, rows %d bytes", snaps[0].Len(), snaps[1].Len())
	}
	if got, want := typed.DB.Binlog().Blocks(), rows.DB.Binlog().Blocks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("binlog blocks differ: typed %d, rows %d", len(got), len(want))
	}
}
