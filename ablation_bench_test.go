// Ablation benchmarks: quantify the design choices DESIGN.md calls
// out — secondary indexes vs full scans, aggregation-level (bucket)
// count sensitivity, snapshot/restore cost (loose-federation dumps),
// WAL durability overhead, and chart rendering.
package xdmodfed

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/chart"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/warehouse"
)

// BenchmarkIndexVsScan: point lookups through a secondary index vs the
// equivalent filtered full scan (the index ablation).
func BenchmarkIndexVsScan(b *testing.B) {
	const rows = 20000
	db := satelliteWithFacts(b, rows)
	tab, err := db.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			db.View(func() error {
				// month_key is a declared index on jobfact.
				tab.ScanIndex([]string{jobs.ColMonthKey}, []any{int64(201706)}, func(r warehouse.Row) bool {
					n++
					return true
				})
				return nil
			})
			if n == 0 {
				b.Fatal("no rows matched")
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			db.View(func() error {
				tab.Scan(func(r warehouse.Row) bool {
					if r.Int(jobs.ColMonthKey) == 201706 {
						n++
					}
					return true
				})
				return nil
			})
			if n == 0 {
				b.Fatal("no rows matched")
			}
		}
	})
}

// BenchmarkBucketCount: aggregation cost as the number of configured
// wall-time levels grows (Table I sensitivity).
func BenchmarkBucketCount(b *testing.B) {
	const facts = 5000
	for _, nBuckets := range []int{5, 50, 500} {
		b.Run(fmt.Sprintf("buckets=%d", nBuckets), func(b *testing.B) {
			db := satelliteWithFacts(b, facts)
			levels := config.AggregationLevels{Dimension: config.WallTimeDimension, Unit: "seconds"}
			maxWall := 50.0 * 3600
			for i := 0; i < nBuckets; i++ {
				levels.Buckets = append(levels.Buckets, config.Bucket{
					Label: fmt.Sprintf("b%d", i),
					Min:   maxWall * float64(i) / float64(nBuckets),
					Max:   maxWall * float64(i+1) / float64(nBuckets),
				})
			}
			eng, err := aggregate.New(db, []config.AggregationLevels{levels})
			if err != nil {
				b.Fatal(err)
			}
			info := jobs.RealmInfo()
			if err := eng.Setup(info); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
		})
	}
}

// BenchmarkSnapshot: loose-federation dump cost and size.
func BenchmarkSnapshot(b *testing.B) {
	db := satelliteWithFacts(b, 10000)
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

// BenchmarkRestore: loose-federation load cost.
func BenchmarkRestore(b *testing.B) {
	db := satelliteWithFacts(b, 10000)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := warehouse.Open("restore")
		if _, err := dst.Restore(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALDurability: ingest with and without the durable binlog
// writer attached (the durability-overhead ablation).
func BenchmarkWALDurability(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "memory-only"
		if durable {
			name = "wal-attached"
		}
		b.Run(name, func(b *testing.B) {
			db := warehouse.Open("sat")
			if _, err := jobs.Setup(db); err != nil {
				b.Fatal(err)
			}
			var w *warehouse.LogWriter
			if durable {
				var err error
				w, err = warehouse.OpenLogWriterOpts(db, filepath.Join(b.TempDir(), "binlog.wal"), db.Binlog().Last(), warehouse.WALOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			recs := benchRecords(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, rec := range recs {
				row, err := jobs.FactFromRecord(rec, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
					b.Fatal(err)
				}
			}
			if w != nil {
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				if w.Position() != db.Binlog().Last() {
					b.Fatalf("wal drained to %d of %d", w.Position(), db.Binlog().Last())
				}
			}
			b.StopTimer()
		})
	}
}

// BenchmarkChartSVG: rendering cost of a 12-month, 4-series chart.
func BenchmarkChartSVG(b *testing.B) {
	var series []aggregate.Series
	for s := 0; s < 4; s++ {
		ser := aggregate.Series{Group: fmt.Sprintf("series%d", s)}
		for m := 1; m <= 12; m++ {
			ser.Points = append(ser.Points, aggregate.Point{PeriodKey: int64(201700 + m), Value: float64(s*100 + m)})
		}
		series = append(series, ser)
	}
	ch := chart.New("Benchmark", "subtitle", "unit", aggregate.Month, series)
	b.ReportAllocs()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = ch.SVG(800, 420)
	}
	if len(out) == 0 {
		b.Fatal("empty SVG")
	}
}
