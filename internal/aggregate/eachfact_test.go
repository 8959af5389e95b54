package aggregate

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/warehouse"
)

// decodedFacts runs eachFact over the views and renders every fact it
// yields — time, dimension values and the exact bits of every measure
// and weighted product — so two decodings compare with DeepEqual.
func decodedFacts(t *testing.T, eng *Engine, info realm.Info, views ...*warehouse.TableData) []string {
	t.Helper()
	l := stateLayout(info)
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	var out []string
	for _, td := range views {
		err := eng.eachFact(info, td, l, nil, nil, func(ts time.Time, dims []string, vals, wvals []float64) {
			out = append(out, fmt.Sprintf("%d %q %x %x", ts.UnixNano(), dims, bits(vals), bits(wvals)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// tableAndBatchFacts decodes one fact table twice: from its own
// published snapshot (the rebuild's input) and from its live rows boxed
// as [][]any and turned back into a view (the incremental and
// pushdown folds' input).
func tableAndBatchFacts(t *testing.T, db *warehouse.DB, eng *Engine, info realm.Info, schema string) (own, batch []string) {
	t.Helper()
	tab, err := db.TableIn(schema, info.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	own = decodedFacts(t, eng, info, tab.Data())
	td, err := tab.RowsChunk(factRowsPositional(t, db, schema, info.FactTable))
	if err != nil {
		t.Fatal(err)
	}
	return own, decodedFacts(t, eng, info, td)
}

// TestEachFactDecodesTableAndBatchAlike: whichever way a fact reaches
// the fold — scanned from the table's chunks or carried as a boxed
// positional row — eachFact renders the identical (time, dims, vals,
// wvals), bit for bit. Covers every realm shape the engine serves plus
// the decoder's edge cases: NULL measure and dimension cells, an
// int-typed measure, dimension and measure columns the table does not
// have, tombstoned rows, and a fact table whose columns are declared
// in a different order.
func TestEachFactDecodesTableAndBatchAlike(t *testing.T) {
	check := func(t *testing.T, own, batch []string, want int) {
		t.Helper()
		if len(own) != want {
			t.Fatalf("table chunks yielded %d facts, want %d", len(own), want)
		}
		if !reflect.DeepEqual(own, batch) {
			for i := range own {
				if i >= len(batch) || own[i] != batch[i] {
					t.Fatalf("fact %d differs:\n table chunk %s\n rows→chunk  %v", i, own[i], batch[i:min(i+1, len(batch))])
				}
			}
			t.Fatalf("rows→chunk yielded %d facts, table chunks %d", len(batch), len(own))
		}
	}

	t.Run("Jobs and reordered columns", func(t *testing.T) {
		db, eng, info := fixture(t, 80, 21)
		own, batch := tableAndBatchFacts(t, db, eng, info, jobs.SchemaName)
		check(t, own, batch, 80)

		// The same facts in a table that declares its columns backwards
		// (a satellite on another schema revision) decode identically.
		def := jobs.Def()
		for i, j := 0, len(def.Columns)-1; i < j; i, j = i+1, j-1 {
			def.Columns[i], def.Columns[j] = def.Columns[j], def.Columns[i]
		}
		if _, err := db.EnsureSchema("fed_reordered").EnsureTable(def); err != nil {
			t.Fatal(err)
		}
		names := jobs.Def().Columns
		for _, row := range factRowsPositional(t, db, jobs.SchemaName, jobs.FactTable) {
			m := make(map[string]any, len(names))
			for i, c := range names {
				m[c.Name] = row[i]
			}
			if err := db.Insert("fed_reordered", jobs.FactTable, m); err != nil {
				t.Fatal(err)
			}
		}
		rOwn, rBatch := tableAndBatchFacts(t, db, eng, info, "fed_reordered")
		check(t, rOwn, rBatch, 80)
		check(t, own, rOwn, 80)
	})

	t.Run("Cloud", func(t *testing.T) {
		db := warehouse.Open("cloud")
		if _, err := realm.Setup(db, cloud.RealmInfo()); err != nil {
			t.Fatal(err)
		}
		eng, err := New(db, []config.AggregationLevels{config.CloudVMMemory()})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 40; i++ {
			s := cloud.Session{
				VMID: fmt.Sprintf("vm%d", i), Resource: "lake", User: fmt.Sprintf("u%d", i%3), Project: "p",
				InstanceType: "m1", Cores: int64(1 + i%8), MemoryGB: float64(i%5) * 3.7, DiskGB: 20,
				Start: start.Add(time.Duration(i) * time.Hour), End: start.Add(time.Duration(i*7+1) * time.Hour),
				Ended: i%2 == 0,
			}
			if err := db.InsertRow(cloud.SchemaName, cloud.SessionTable, cloud.SessionValues(s, 0)); err != nil {
				t.Fatal(err)
			}
		}
		own, batch := tableAndBatchFacts(t, db, eng, cloud.RealmInfo(), cloud.SchemaName)
		check(t, own, batch, 40)
	})

	t.Run("Storage", func(t *testing.T) {
		db := warehouse.Open("storage")
		if _, err := realm.Setup(db, storage.RealmInfo()); err != nil {
			t.Fatal(err)
		}
		eng, err := New(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		for day := 1; day <= 12; day++ {
			for u := 0; u < 3; u++ {
				snap := storage.Snapshot{
					Resource: "fs", ResourceType: "persistent", Mountpoint: "/m",
					User: fmt.Sprintf("u%d", u), PI: "p",
					Timestamp: time.Date(2017, 3, day, 6, 0, 0, 0, time.UTC),
					FileCount: int64(1000*u + day), LogicalBytes: int64(day) << 33, PhysicalBytes: int64(day) << 34,
					SoftThreshold: int64(u) << 40,
				}
				if err := db.InsertRow(storage.SchemaName, storage.FactTable, storage.FactValues(snap)); err != nil {
					t.Fatal(err)
				}
			}
		}
		own, batch := tableAndBatchFacts(t, db, eng, storage.RealmInfo(), storage.SchemaName)
		check(t, own, batch, 36)
	})

	t.Run("NULLs, int measure, absent columns, tombstones", func(t *testing.T) {
		db := warehouse.Open("odd")
		def := warehouse.TableDef{
			Name: "oddfact",
			Columns: []warehouse.Column{
				{Name: "weight", Type: warehouse.TypeFloat, Nullable: true},
				{Name: "value", Type: warehouse.TypeFloat, Nullable: true},
				{Name: "units", Type: warehouse.TypeInt}, // int-typed measure and numeric dimension
				{Name: "at", Type: warehouse.TypeTime},
				{Name: "site", Type: warehouse.TypeString, Nullable: true},
				{Name: "id", Type: warehouse.TypeInt},
			},
			PrimaryKey: []string{"id"},
		}
		tab, err := db.EnsureSchema("modw_odd").EnsureTable(def)
		if err != nil {
			t.Fatal(err)
		}
		info := realm.Info{
			Name: "Odd", Schema: "modw_odd", FactTable: "oddfact", TimeColumn: "at",
			Metrics: []realm.Metric{
				{ID: "value", Func: warehouse.AggSum, Column: "value"},
				{ID: "units", Func: warehouse.AggSum, Column: "units"},
				{ID: "wavg", Func: warehouse.AggAvg, Column: "value", WeightColumn: "weight"},
				{ID: "ghost", Func: warehouse.AggSum, Column: "no_such_measure"},
			},
			Dimensions: []realm.Dimension{
				{ID: "site", Column: "site"},
				{ID: "ghost", Column: "no_such_dimension"},
				{ID: "size", Column: "units", Numeric: true},
				{ID: "ghostsize", Column: "no_such_number", Numeric: true},
				{ID: "unleveled", Column: "value", Numeric: true},
			},
		}
		eng, err := New(db, []config.AggregationLevels{
			{Dimension: "size", Unit: "units", Buckets: []config.Bucket{{Label: "few", Min: 0, Max: 3}, {Label: "many", Min: 3, Max: 1e9}}},
			{Dimension: "ghostsize", Unit: "units", Buckets: []config.Bucket{{Label: "none", Min: 0, Max: 1}, {Label: "some", Min: 1, Max: 1e9}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		at := time.Date(2017, 8, 1, 0, 0, 0, 0, time.UTC)
		rows := [][]any{
			{1.5, 10.25, int64(2), at, "a", int64(1)},
			{nil, 3.0, int64(5), at.Add(time.Hour), nil, int64(2)}, // NULL weight, NULL site
			{2.0, nil, int64(0), at.Add(2 * time.Hour), "b", int64(3)},
			{nil, nil, int64(7), at.Add(3 * time.Hour), "a", int64(4)},
		}
		for _, row := range rows {
			if err := db.InsertRow("modw_odd", "oddfact", row); err != nil {
				t.Fatal(err)
			}
		}
		// Rewriting row 1 and deleting row 3 leave tombstones behind.
		if err := db.Upsert("modw_odd", "oddfact", map[string]any{
			"weight": 0.5, "value": 1.0 / 3, "units": int64(4), "at": at.Add(4 * time.Hour), "site": "c", "id": int64(1)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Do(func() error {
			if !tab.DeleteByKey(int64(3)) {
				return fmt.Errorf("row 3 not deleted")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		own, batch := tableAndBatchFacts(t, db, eng, info, "modw_odd")
		check(t, own, batch, 3)
		// Spot-check the rendering itself, not only the agreement: the
		// NULL-weight, NULL-site fact reads zeros and empty strings.
		want := fmt.Sprintf("%d %q %x %x", at.Add(time.Hour).UnixNano(),
			[]string{"", "", "many", "none", "all"},
			[]uint64{math.Float64bits(3), math.Float64bits(5), 0, 0}, []uint64{0})
		if own[0] != want {
			t.Errorf("first live fact decoded as\n %s\nwant\n %s", own[0], want)
		}
	})
}
