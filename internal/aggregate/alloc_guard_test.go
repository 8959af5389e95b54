package aggregate

import (
	"fmt"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// TestColdChartQueryAllocationCeiling is the columnar engine's
// allocation-regression guard: a cold chart query walks the
// aggregation table through typed column vectors and must not
// materialize rows. The ceiling is set ~4x above the measured columnar
// cost (a few hundred allocations, dominated by series assembly) and
// far below what any row-materializing scan costs — boxing every cell
// of a few-thousand-row aggregation table alone blows through it.
func TestColdChartQueryAllocationCeiling(t *testing.T) {
	const nFacts = 4000
	db := warehouse.Open("allocguard")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := db.Do(func() error {
		for i := 0; i < nFacts; i++ {
			end := base.Add(time.Duration(i%8760) * time.Hour)
			row, err := jobs.FactRowFromRecord(shredder.JobRecord{
				LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%16), Account: "a",
				Resource: "r1", Queue: "batch", Nodes: 1, Cores: int64(1 + i%64),
				Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
			}, nil)
			if err != nil {
				return err
			}
			if err := tab.InsertRow(row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	req := Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: Month}
	if _, err := eng.Query(info, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Query(info, req); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 2500
	t.Logf("cold chart query: %.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("cold chart query allocates %.0f objects/op, ceiling %d — the lock-free columnar read path has regressed", allocs, ceiling)
	}
}

// TestUpsertOfExistingRowDoesNotBoxThePriorRow guards the positional
// upsert the ingest-side tables take: replacing a row boxes neither the
// row it replaces (an update event carries only the new values) nor,
// for a derived table, an event at all. The same layout as a logged table pays only for the event it
// appends. Both measure 3 allocations on a 29-column row — the coerced
// copy, the key string and the amortized vector growth; boxing the
// prior row costs one more per cell, which the ceiling leaves no room
// for.
func TestUpsertOfExistingRowDoesNotBoxThePriorRow(t *testing.T) {
	db := warehouse.Open("upsertguard")
	info := jobs.RealmInfo()
	derived := aggDef(info, stateLayout(info), Day)
	logged := derived
	logged.Derived = false
	if !derived.Derived {
		t.Fatalf("aggregation tables are expected to be derived: %+v", derived)
	}
	row := make([]any, len(derived.Columns))
	for i, c := range derived.Columns {
		switch c.Type {
		case warehouse.TypeInt:
			row[i] = int64(20170301 + i)
		case warehouse.TypeFloat:
			row[i] = 1234.5 + float64(i)
		case warehouse.TypeString:
			row[i] = "v"
		}
	}
	// Upserts alternate between row and a twin whose last cell differs,
	// so each one replaces the stored row: a row equal to the stored one
	// writes nothing.
	twin := append([]any(nil), row...)
	twin[len(twin)-1] = twin[len(twin)-1].(float64) + 1
	rows := [2][]any{row, twin}
	for _, tc := range []struct {
		name   string
		schema string
		def    warehouse.TableDef
	}{
		{"derived", "scratch_agg", derived},
		{"logged", "scratch_raw", logged},
	} {
		tab, err := db.EnsureSchema(tc.schema).EnsureTable(tc.def)
		if err != nil {
			t.Fatal(err)
		}
		head := db.Binlog().Last()
		var allocs float64
		const runs = 200
		if err := db.Do(func() error {
			if err := tab.UpsertRow(row); err != nil {
				return err
			}
			n := 0
			allocs = testing.AllocsPerRun(runs, func() {
				n++
				if err := tab.UpsertRow(rows[n%2]); err != nil {
					t.Fatal(err)
				}
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		const ceiling = 12
		t.Logf("%s table: %.1f allocs per upsert of an existing %d-column row (ceiling %d)", tc.name, allocs, len(row), ceiling)
		if allocs > ceiling {
			t.Errorf("%s table: upsert of an existing row allocates %.1f objects, ceiling %d — the prior row is being boxed again", tc.name, allocs, ceiling)
		}
		wantEvents := uint64(0)
		if !tc.def.Derived {
			wantEvents = runs + 2 // first insert, warm-up run, measured runs
		}
		if got := db.Binlog().Last() - head; got != wantEvents {
			t.Errorf("%s table: %d upserts logged %d events, want %d", tc.name, runs+2, got, wantEvents)
		}
	}
}

// TestIncrementalFoldAllocationCeiling guards the incremental fold's
// path through the aggregation tables: a batch is grouped in per-batch
// arrays, and stored groups are read and written as typed column
// vectors — one keyed batch upsert per table, whose key probe also
// finds the row each group replaces — so a fold allocates per batch and
// for the keys it keeps (one string per distinct dimension tuple, one
// per aggregation row's key-map entry), not per group or per cell. A
// 512-fact XSEDE-shaped batch into an engine warm with the 4 500 facts
// before it measures about 6 objects per fact; a group map keyed by
// rendered strings with an object and an entry list per group cost
// about 18, and boxing each group's cells for a positional upsert, as
// the fold once did, about 220.
func TestIncrementalFoldAllocationCeiling(t *testing.T) {
	const warm, batch, ceiling = 4500, 512, 12
	rows := xsedeFactRows(t, warm+batch)
	eng, info := warmJobsEngine(t, rows[:warm])
	perFact := float64(foldMallocs(t, eng, info, rows[warm:])) / batch
	t.Logf("incremental fold of %d facts: %.1f allocs/fact (ceiling %d)", batch, perFact, ceiling)
	if perFact > ceiling {
		t.Errorf("the incremental fold allocates %.1f objects per fact, ceiling %d — the fold allocates per group or per cell again", perFact, ceiling)
	}
}
