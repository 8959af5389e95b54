package aggregate

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// aggSnapshot renders every row of every aggregation table for a realm
// as a sorted list of strings, so two aggregation states can be
// compared for exact equality regardless of how they were produced.
func aggSnapshot(t *testing.T, db *warehouse.DB, info realm.Info) []string {
	t.Helper()
	var out []string
	db.View(func() error {
		for _, p := range Periods() {
			tab, err := db.TableIn(AggSchema(info), AggTableName(info.FactTable, p))
			if err != nil {
				t.Fatal(err)
			}
			cols := tab.Columns()
			tab.Scan(func(r warehouse.Row) bool {
				var b strings.Builder
				b.WriteString(p.String())
				for _, c := range cols {
					fmt.Fprintf(&b, "|%s=%v", c, r.Get(c))
				}
				out = append(out, b.String())
				return true
			})
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// TestReaggregateBumpsEpoch: a rebuild replaces the aggregation tables
// wholesale, so cached chart results from before it must be invalidated.
func TestReaggregateBumpsEpoch(t *testing.T) {
	db, eng, info := fixture(t, 10, 2)
	before := db.Epoch()
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() <= before {
		t.Fatalf("epoch %d after Reaggregate, want > %d", db.Epoch(), before)
	}
}

// fanInFixture extends the basic fixture with extra replicated member
// schemas each holding its own jobfact table — the hub shape a parallel
// rebuild scans.
func fanInFixture(t *testing.T, schemas, perSchema int, seed int64) (*warehouse.DB, *Engine, realm.Info, []string) {
	t.Helper()
	db, eng, info := fixture(t, perSchema, seed)
	sources := []string{jobs.SchemaName}
	for s := 0; s < schemas; s++ {
		name := fmt.Sprintf("fed_site%d", s)
		sch := db.EnsureSchema(name)
		if _, err := sch.EnsureTable(jobs.Def()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perSchema; i++ {
			end := time.Date(2017, time.Month(1+(i+s)%12), 1+i%28, i%24, 0, 0, 0, time.UTC)
			rec := shredder.JobRecord{
				LocalJobID: int64(i + 1),
				User:       fmt.Sprintf("user%d", i%5),
				Account:    "acct",
				Resource:   fmt.Sprintf("res%d", s),
				Queue:      "batch",
				Nodes:      1,
				Cores:      int64(1 + i%32),
				Submit:     end.Add(-3 * time.Hour),
				Start:      end.Add(-2 * time.Hour),
				End:        end,
			}
			row, err := jobs.FactFromRecord(rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Upsert(name, jobs.FactTable, row); err != nil {
				t.Fatal(err)
			}
		}
		sources = append(sources, name)
	}
	return db, eng, info, sources
}

// TestParallelReaggregateMatchesSequential: the worker count (one per
// CPU, at most one per task) never shows in the result — 1, 2 and 4
// scan workers must produce bit-identical aggregation tables over a
// multi-schema federation.
func TestParallelReaggregateMatchesSequential(t *testing.T) {
	db, eng, info, sources := fanInFixture(t, 4, 120, 11)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n1, err := eng.Reaggregate(info, sources)
	if err != nil {
		t.Fatal(err)
	}
	want := aggSnapshot(t, db, info)

	for _, workers := range []int{2, 4} {
		runtime.GOMAXPROCS(workers)
		n, err := eng.Reaggregate(info, sources)
		if err != nil {
			t.Fatal(err)
		}
		if n != n1 {
			t.Fatalf("workers=%d aggregated %d facts, workers=1 aggregated %d", workers, n, n1)
		}
		got := aggSnapshot(t, db, info)
		if len(got) != len(want) {
			t.Fatalf("workers=%d produced %d agg rows, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d:\n got  %s\n want %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestApplyFactRowsMatchesRebuild: folding positional rows (the
// replicated-event shape) must land exactly where a full rebuild from
// the raw table puts them — bit for bit, whether they arrive as one
// batch or one row at a time.
func TestApplyFactRowsMatchesRebuild(t *testing.T) {
	for _, batch := range []int{150, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			db, eng, info := fixture(t, 150, 12)
			rows := factRowsPositional(t, db, jobs.SchemaName, jobs.FactTable)
			n := 0
			for len(rows) > 0 {
				folded, err := eng.ApplyFactRows(info, jobs.SchemaName, rows[:batch])
				if err != nil {
					t.Fatal(err)
				}
				n += folded
				rows = rows[batch:]
			}
			if n != 150 {
				t.Fatalf("folded %d rows, want 150", n)
			}
			inc := aggSnapshot(t, db, info)

			if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
				t.Fatal(err)
			}
			full := aggSnapshot(t, db, info)

			if len(inc) != len(full) {
				t.Fatalf("incremental produced %d agg rows, rebuild %d", len(inc), len(full))
			}
			for i := range full {
				if inc[i] != full[i] {
					t.Fatalf("row %d:\n incremental %s\n rebuild     %s", i, inc[i], full[i])
				}
			}
		})
	}
}

// TestReaggregateConcurrentReaders: chart queries racing a rebuild never
// see a half-built table — the install is one write transaction, so a
// query observes either the complete old state or the complete new one.
func TestReaggregateConcurrentReaders(t *testing.T) {
	_, eng, info, sources := fanInFixture(t, 3, 80, 13)
	total := float64(4 * 80) // own schema + 3 members
	if _, err := eng.Reaggregate(info, sources); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			series, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, Period: Year})
			if err != nil {
				errc <- err
				return
			}
			var got float64
			for _, s := range series {
				got += s.Aggregate
			}
			if got != 0 && got != total {
				errc <- fmt.Errorf("query saw partial rebuild: %g jobs, want 0 or %g", got, total)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := eng.Reaggregate(info, sources); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
