package warehouse_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// snapshotFixture returns a satellite DB holding n job facts: one-hour,
// 8-core jobs, one ending every hour of 2017, over 32 users.
func snapshotFixture(b *testing.B, n int) *warehouse.DB {
	b.Helper()
	db := warehouse.Open("sat")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		b.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.Add(time.Duration(i%8760) * time.Hour)
		row, err := jobs.FactFromRecord(shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%32), Account: "a",
			Resource: "cluster", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkSnapshot: the time and size (bytes/dump) of a 10k-fact
// snapshot, the dump loose federation ships (paper §II-C2).
func BenchmarkSnapshot(b *testing.B) {
	db := snapshotFixture(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.ReportMetric(float64(size), "bytes/dump")
}

// BenchmarkRestore: loading that snapshot into an empty DB.
func BenchmarkRestore(b *testing.B) {
	db := snapshotFixture(b, 10000)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, evs, err := warehouse.ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			_, err = warehouse.Open("restore").ApplyAll(evs)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
