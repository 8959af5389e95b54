package aggregate

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sort"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// factRowsPositional reads a fact table's live rows in column order —
// the positional shape binlog insert events carry and
// DeltaFolder.FoldRows consumes.
func factRowsPositional(t testing.TB, db *warehouse.DB, schema, table string) [][]any {
	t.Helper()
	var out [][]any
	db.View(func() error {
		tab, err := db.TableIn(schema, table)
		if err != nil {
			t.Fatal(err)
		}
		cols := tab.Columns()
		tab.Scan(func(r warehouse.Row) bool {
			row := make([]any, len(cols))
			for i, c := range cols {
				row[i] = r.Get(c)
			}
			out = append(out, row)
			return true
		})
		return nil
	})
	return out
}

// encodeDelta gob-encodes a delta with a fresh encoder so two
// encodings can be compared byte for byte.
func encodeDelta(t *testing.T, d Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaWireStability: folding the same facts twice must produce
// deltas with identical gob encodings — bins are rendered in sorted
// group-key order, so the wire form is a pure function of the state.
func TestDeltaWireStability(t *testing.T) {
	db, eng, info := fixture(t, 200, 7)

	fold := func() Delta {
		df, err := eng.NewDeltaFolder(info)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := df.Reset(nil); err != nil {
			t.Fatal(err)
		}
		d, ok := df.Flush()
		if !ok {
			t.Fatal("reset flush produced no delta")
		}
		return d
	}
	a, b := fold(), fold()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two folds of the same facts produced different deltas")
	}
	if !bytes.Equal(encodeDelta(t, a), encodeDelta(t, b)) {
		t.Fatal("identical deltas encoded to different bytes")
	}
	if !a.Reset {
		t.Fatal("snapshot fold must flush a reset delta")
	}
	if a.CoveredLSN != db.Binlog().Last() {
		t.Fatalf("reset delta covers %d, binlog head is %d", a.CoveredLSN, db.Binlog().Last())
	}
	for _, pb := range a.Periods {
		sorted := sort.SliceIsSorted(pb.Bins, func(i, j int) bool {
			ki := string(groupKey(nil, pb.Bins[i].PeriodKey, pb.Bins[i].Dims))
			kj := string(groupKey(nil, pb.Bins[j].PeriodKey, pb.Bins[j].Dims))
			return ki < kj
		})
		if !sorted {
			t.Fatalf("period %s bins are not sorted by group key", pb.Period)
		}
	}
}

// TestPushdownMatchesFactReplication: a hub that merges a satellite's
// deltas via pagg tables must hold bit-identical aggregation tables to
// a hub that replicated the same raw facts — for the initial reset
// flush, for incremental flushes, and when re-applying a delta. The
// subtest keeps its name from when a sharded arm ran beside it; the
// unsharded layout is now the only one.
func TestPushdownMatchesFactReplication(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		sat, satEng, info := fixture(t, 300, 11)
		const member = "fed_sat"

		newHub := func(name string) (*warehouse.DB, *Engine) {
			db := warehouse.Open(name)
			if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
				t.Fatal(err)
			}
			eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Setup(info); err != nil {
				t.Fatal(err)
			}
			return db, eng
		}

		pushHub, pushEng := newHub("hub-pushdown")
		factHub, factEng := newHub("hub-facts")

		// Fact-mode control: raw facts land verbatim in the member
		// schema and the hub rebuilds by scanning them.
		syncFacts := func() {
			sch := factHub.EnsureSchema(member)
			if sch.Table(jobs.FactTable) == nil {
				if _, err := sch.EnsureTable(jobs.Def()); err != nil {
					t.Fatal(err)
				}
			}
			cols := jobs.Def().Columns
			for _, row := range factRowsPositional(t, sat, jobs.SchemaName, jobs.FactTable) {
				m := make(map[string]any, len(cols))
				for i, c := range cols {
					m[c.Name] = row[i]
				}
				if err := factHub.Upsert(member, jobs.FactTable, m); err != nil {
					t.Fatal(err)
				}
			}
		}
		compare := func(stage string) {
			if _, err := pushEng.ReaggregateFrom(info, []Source{{Schema: member, Pushdown: true}}, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := factEng.ReaggregateFrom(info, []Source{{Schema: member}}, nil); err != nil {
				t.Fatal(err)
			}
			got := aggSnapshot(t, pushHub, info)
			want := aggSnapshot(t, factHub, info)
			if len(want) == 0 {
				t.Fatalf("%s: control snapshot is empty", stage)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pushdown aggregates differ from fact-replication control (%d vs %d rows)",
					stage, len(got), len(want))
			}
		}

		df, err := satEng.NewDeltaFolder(info)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := df.Reset(nil); err != nil {
			t.Fatal(err)
		}
		d, ok := df.Flush()
		if !ok {
			t.Fatal("no reset delta")
		}
		if _, err := pushEng.ApplyDelta(info, member, d); err != nil {
			t.Fatal(err)
		}
		if !pushEng.HasPagg(info, member) {
			t.Fatal("reset delta left no pagg tables")
		}
		syncFacts()
		compare("reset")

		// Incremental: a second wave of brand-new facts (distinct job
		// IDs — an upsert collision would need a reset, not a fold)
		// folds into the cumulative state and flushes as an upsert
		// delta shipping only touched bins. The rows are taken from
		// the binlog insert events — the exact positional shape the
		// replication sender folds.
		pos := sat.Binlog().Last()
		for i := 0; i < 80; i++ {
			end := time.Date(2017, time.Month(1+i%12), 1+i%28, i%24, 0, 0, 0, time.UTC)
			rec := shredder.JobRecord{
				LocalJobID: int64(100000 + i),
				User:       "erin",
				Account:    "acct",
				Resource:   []string{"comet", "stampede", "bridges"}[i%3],
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
			if err := sat.Upsert(jobs.SchemaName, jobs.FactTable, row); err != nil {
				t.Fatal(err)
			}
		}
		evs, err := sat.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		var fresh [][]any
		for _, ev := range evs {
			if ev.Kind == warehouse.EvInsert && ev.Table == info.FactTable {
				fresh = append(fresh, ev.Row)
			}
		}
		if len(fresh) != 80 {
			t.Fatalf("second wave logged %d inserts, want 80", len(fresh))
		}
		if err := df.FoldRows(fresh); err != nil {
			t.Fatal(err)
		}
		df.SetCovered(sat.Binlog().Last())
		d2, ok := df.Flush()
		if !ok {
			t.Fatal("no incremental delta")
		}
		if d2.Reset {
			t.Fatal("incremental flush must not be a reset")
		}
		if rows, err := pushEng.ApplyDelta(info, member, d2); err != nil {
			t.Fatal(err)
		} else if rows == 0 {
			t.Fatal("incremental delta applied no bins")
		}
		syncFacts()
		compare("incremental")

		// Idempotence: cumulative bins replace, so re-applying the
		// same delta must change nothing.
		if _, err := pushEng.ApplyDelta(info, member, d2); err != nil {
			t.Fatal(err)
		}
		compare("reapply")
	})
}

// TestPartialMergeRules exercises the merge rules on synthetic bins
// of a layout storing one sum, one max and one last: counts and sums
// add, maxes compare, and sum_last follows the newest last_ts with the
// later-merged side winning ties.
func TestPartialMergeRules(t *testing.T) {
	l := stateLayout(realm.Info{Metrics: []realm.Metric{
		{ID: "s", Func: warehouse.AggSum, Column: "x"},
		{ID: "m", Func: warehouse.AggMax, Column: "x"},
		{ID: "l", Func: warehouse.AggSumLast, Column: "x"},
	}})
	if len(l.state) != 3 || l.at[stateMax] != 1 || l.at[stateLast] != 2 || !l.lastTS {
		t.Fatalf("layout %+v, want sum_x, max_x, last_x and last_ts", l)
	}
	bin := func(pk int64, dims []string, n int64, lastTS float64, sum, max, last float64) Bin {
		return Bin{PeriodKey: pk, Dims: dims, N: n, LastTS: lastTS, State: []float64{sum, max, last}}
	}
	day := func(bins ...Bin) partial {
		p, err := Delta{Realm: "Jobs", Periods: []PeriodBins{{Period: "day", Bins: bins}}}.toPartial()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	shared := string(groupKey(nil, 20170101, []string{"r1"}))
	a := func() partial {
		return day(
			bin(20170101, []string{"r1"}, 2, 100, 8, 7, 50),
			bin(20170102, []string{"r1"}, 1, 90, 3, 3, 30))
	}

	m := a()
	m.merge(l, day(
		bin(20170101, []string{"r1"}, 3, 100, 4, 9, 60), // equal lastTS: later-merged wins
		bin(20170101, []string{"r2"}, 1, 40, 2, 2, 20))) // disjoint bin
	if len(m[Day]) != 3 {
		t.Fatalf("merged %d groups, want 3", len(m[Day]))
	}
	g := m[Day][shared]
	if g.n != 5 || g.state[0] != 12 || g.state[1] != 9 {
		t.Errorf("merged shared bin: %+v", g)
	}
	if g.state[2] != 60 || g.lastTS != 100 {
		t.Errorf("sum_last tie must take the later-merged side: %+v", g)
	}
	if g := m[Day][string(groupKey(nil, 20170101, []string{"r2"}))]; g == nil || g.n != 1 {
		t.Errorf("disjoint bin must pass through unchanged: %+v", g)
	}

	// An older lastTS on the merged-in side must NOT replace newer lasts,
	// and a smaller max must not replace the larger one.
	m = a()
	m.merge(l, day(bin(20170101, []string{"r1"}, 1, 10, 1, 1, 999)))
	if g := m[Day][shared]; g.state[2] != 50 || g.lastTS != 100 || g.state[1] != 7 {
		t.Errorf("stale merge replaced last or max: %+v", g)
	}
}

// TestMergeableRealm: every built-in aggregate function has a merge
// rule; an unknown function must force fact mode, never a wrong merge.
func TestMergeableRealm(t *testing.T) {
	if err := MergeableRealm(jobs.RealmInfo()); err != nil {
		t.Errorf("Jobs must be mergeable: %v", err)
	}
	if err := MergeableRealm(storage.RealmInfo()); err != nil {
		t.Errorf("Storage (sum_last) must be mergeable: %v", err)
	}
	bad := jobs.RealmInfo()
	bad.Metrics = append([]realm.Metric(nil), bad.Metrics...)
	bad.Metrics[0].Func = warehouse.AggFunc(99)
	if err := MergeableRealm(bad); err == nil {
		t.Error("unknown aggregate function must not be mergeable")
	}
}

// TestLevelsDigest: engines agree on the digest iff their aggregation
// levels agree — the hub's pushdown grant precondition.
func TestLevelsDigest(t *testing.T) {
	db := warehouse.Open("dg")
	mk := func(levels []config.AggregationLevels) string {
		eng, err := New(db, levels)
		if err != nil {
			t.Fatal(err)
		}
		return eng.LevelsDigest()
	}
	hub1 := mk([]config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	hub2 := mk([]config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	instA := mk([]config.AggregationLevels{config.InstanceAWallTime(), config.DefaultJobSize()})
	if hub1 != hub2 {
		t.Error("identical levels produced different digests")
	}
	if hub1 == instA {
		t.Error("different wall-time levels produced the same digest")
	}
	if hub1 == mk(nil) {
		t.Error("configured levels matched the default-levels digest")
	}
}

// TestPushdownSumLast is the pushdown counterpart of
// TestSumLastSemantics: non-additive sum_last storage metrics pushed
// down as deltas — including a stale out-of-order arrival folded
// incrementally — must reproduce the fact-mode answer exactly.
func TestPushdownSumLast(t *testing.T) {
	sat := warehouse.Open("sl-sat")
	stTab, err := realm.Setup(sat, storage.RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	satEng, err := New(sat, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := storage.RealmInfo()
	if err := satEng.Setup(info); err != nil {
		t.Fatal(err)
	}
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
			if err := sat.Do(func() error { return stTab.UpsertRow(storage.FactValues(snap)) }); err != nil {
				t.Fatal(err)
			}
		}
	}

	hub := warehouse.Open("sl-hub")
	if _, err := realm.Setup(hub, storage.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	hubEng, err := New(hub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hubEng.Setup(info); err != nil {
		t.Fatal(err)
	}
	const member = "fed_sl"

	queryMonth := func(stage string, want float64) {
		t.Helper()
		if _, err := hubEng.ReaggregateFrom(info, []Source{{Schema: member, Pushdown: true}}, nil); err != nil {
			t.Fatal(err)
		}
		series, err := hubEng.Query(info, Request{MetricID: storage.MetricFileCount, Period: Month})
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != 1 {
			t.Fatalf("%s: series = %d", stage, len(series))
		}
		if got := series[0].Aggregate; got != want {
			t.Errorf("%s: monthly file count = %g, want %g (sum of latest per user)", stage, got, want)
		}
	}

	df, err := satEng.NewDeltaFolder(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Reset(nil); err != nil {
		t.Fatal(err)
	}
	d, ok := df.Flush()
	if !ok {
		t.Fatal("no reset delta")
	}
	if _, err := hubEng.ApplyDelta(info, member, d); err != nil {
		t.Fatal(err)
	}
	queryMonth("reset", 6200)

	// A stale snapshot (older than already-folded ones) arrives as an
	// incremental fold: the hub's "last" must not regress.
	stale := storage.Snapshot{
		Resource: "fs", ResourceType: "persistent", Mountpoint: "/m",
		User: "alice", PI: "p",
		Timestamp: time.Date(2017, 3, 2, 23, 0, 0, 0, time.UTC),
		FileCount: 1, LogicalBytes: 1, PhysicalBytes: 1,
	}
	if err := df.FoldRows([][]any{storage.FactValues(stale)}); err != nil {
		t.Fatal(err)
	}
	d2, ok := df.Flush()
	if !ok {
		t.Fatal("no incremental delta after stale fold")
	}
	if _, err := hubEng.ApplyDelta(info, member, d2); err != nil {
		t.Fatal(err)
	}
	queryMonth("stale-incremental", 6200)
}
