package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/perf"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/warehouse"
)

// chartsGolden holds every realm × metric × period chart over
// goldenFacts, rendered by renderCharts. It was recorded with the wide
// row layout, which stored sum, min, max and last for every measure
// column; a chart that no longer matches it is a bug, never a reason to
// re-record it.
const chartsGolden = "testdata/charts_wide_layout.golden"

// goldenRealm is one registered realm and its fact table definition.
type goldenRealm struct {
	info realm.Info
	def  warehouse.TableDef
}

// goldenRealms lists every realm an instance registers.
func goldenRealms() []goldenRealm {
	return []goldenRealm{
		{jobs.RealmInfo(), jobs.Def()},
		{cloud.RealmInfo(), cloud.SessionDef()},
		{storage.RealmInfo(), storage.Def()},
		{perf.RealmInfo(), perf.SummaryDef()},
		{alloc.RealmInfo(), alloc.ChargeDef()},
		{gateway.RealmInfo(), gateway.Def()},
	}
}

func goldenLevels() []config.AggregationLevels {
	return []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory()}
}

// goldenFacts draws n positional fact rows for def from a seeded
// generator: three values per string column, few distinct timestamps
// (so groups hold several facts and SUM_LAST cells tie), floats of
// both signs, and NULLs in nullable columns. Integer key columns draw
// from a wide range and a one-column key is the row's index; a row
// repeating a key already drawn is dropped, so every row is an insert.
func goldenFacts(def warehouse.TableDef, n int, seed int64) [][]any {
	rng := rand.New(rand.NewSource(seed))
	pkPos := make([]int, 0, len(def.PrimaryKey))
	inPK := map[string]bool{}
	for _, k := range def.PrimaryKey {
		inPK[k] = true
		for i, c := range def.Columns {
			if c.Name == k {
				pkPos = append(pkPos, i)
			}
		}
	}
	seen := map[string]bool{}
	var rows [][]any
	for len(rows) < n {
		row := make([]any, len(def.Columns))
		for i, c := range def.Columns {
			if c.Nullable && rng.Intn(10) == 0 {
				continue
			}
			switch {
			case len(def.PrimaryKey) == 1 && inPK[c.Name]:
				row[i] = fmt.Sprintf("%s%d", c.Name, len(rows))
			case c.Type == warehouse.TypeInt && inPK[c.Name]:
				row[i] = rng.Int63n(1 << 20)
			case c.Type == warehouse.TypeString:
				row[i] = fmt.Sprintf("%s%d", c.Name, rng.Intn(3))
			case c.Type == warehouse.TypeInt:
				row[i] = 1 + rng.Int63n(64)
			case c.Type == warehouse.TypeFloat:
				row[i] = math.Round(rng.NormFloat64()*1e6) / 64
			case c.Type == warehouse.TypeBool:
				row[i] = rng.Intn(2) == 0
			case c.Type == warehouse.TypeTime:
				row[i] = time.Date(2017, time.Month(1+rng.Intn(2)), 1+rng.Intn(4), 12*rng.Intn(2), 0, 0, 0, time.UTC)
			}
		}
		key := fmt.Sprint(pkAt(row, pkPos)...)
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, row)
	}
	return rows
}

func pkAt(row []any, pos []int) []any {
	out := make([]any, len(pos))
	for i, p := range pos {
		out[i] = row[p]
	}
	return out
}

// goldenEngine sets up one realm's fact table and aggregation tables
// in a fresh warehouse.
func goldenEngine(t *testing.T, gr goldenRealm) (*warehouse.DB, *Engine) {
	t.Helper()
	db := warehouse.Open("golden")
	if _, err := db.EnsureSchema(gr.info.Schema).EnsureTable(gr.def); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, goldenLevels())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Setup(gr.info); err != nil {
		t.Fatal(err)
	}
	return db, eng
}

// renderCharts renders every metric × period chart of a realm, once
// ungrouped and once grouped by one dimension (metric i groups by
// dimension i mod the dimension count), one line per series, every
// value as its float64 bit pattern.
func renderCharts(t *testing.T, eng *Engine, info realm.Info, b *strings.Builder) {
	t.Helper()
	for mi, m := range info.Metrics {
		for _, p := range Periods() {
			for _, groupBy := range []string{"", info.Dimensions[mi%len(info.Dimensions)].ID} {
				series, err := eng.Query(info, Request{MetricID: m.ID, GroupBy: groupBy, Period: p})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range series {
					fmt.Fprintf(b, "%s %s %s %s=%q n=%d agg=%016x", info.Name, m.ID, p, groupBy, s.Group,
						s.N, math.Float64bits(s.Aggregate))
					for _, pt := range s.Points {
						fmt.Fprintf(b, " %d:%016x", pt.PeriodKey, math.Float64bits(pt.Value))
					}
					b.WriteByte('\n')
				}
			}
		}
	}
}

// goldenCharts folds goldenFacts of every realm into aggregation
// tables — through a rebuild of the loaded fact table, or through
// ApplyFactRows batches over an empty one — and renders every chart.
func goldenCharts(t *testing.T, viaFold bool) string {
	var b strings.Builder
	for ri, gr := range goldenRealms() {
		db, eng := goldenEngine(t, gr)
		rows := goldenFacts(gr.def, 160, int64(100+ri))
		if viaFold {
			for i := 0; i < len(rows); i += 7 {
				if _, err := eng.ApplyFactRows(gr.info, gr.info.Schema, rows[i:min(i+7, len(rows))]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, row := range rows {
				if err := db.InsertRow(gr.info.Schema, gr.info.FactTable, row); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.Reaggregate(gr.info, []string{gr.info.Schema}); err != nil {
				t.Fatal(err)
			}
		}
		renderCharts(t, eng, gr.info, &b)
	}
	return b.String()
}

// TestChartsMatchWideLayout: every chart of every realm, whether its
// aggregation rows were built by the incremental fold or by a rebuild,
// is bit-identical to the charts the wide row layout served.
func TestChartsMatchWideLayout(t *testing.T) {
	want, err := os.ReadFile(chartsGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		viaFold bool
	}{{"rebuild", false}, {"ApplyFactRows", true}} {
		got := goldenCharts(t, c.viaFold)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: chart line %d differs:\n got %s\nwant %s", c.name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d chart lines, golden has %d", c.name, len(gl), len(wl))
	}
}

// TestStoredStateIsRead: for every registered realm, every state column
// aggDef emits is read by some metric's chart, and every metric reads
// only stored columns. last_ts counts as read when a last is: it orders
// the lasts.
func TestStoredStateIsRead(t *testing.T) {
	for _, gr := range goldenRealms() {
		info := gr.info
		def := aggDef(info, stateLayout(info), Day)
		stored := map[string]bool{}
		for _, c := range def.Columns[2+len(info.Dimensions):] { // past period_key, the dimensions and n
			stored[c.Name] = true
		}
		read := map[string]bool{}
		for _, m := range info.Metrics {
			val, den := metricState(m)
			for _, s := range []stateCol{val, den} {
				if s.of == "" {
					continue
				}
				if !stored[s.name()] {
					t.Errorf("%s: metric %s reads %s, which aggDef does not store", info.Name, m.ID, s.name())
				}
				read[s.name()] = true
				if s.kind == stateLast {
					read["last_ts"] = true
				}
			}
		}
		for c := range stored {
			if !read[c] {
				t.Errorf("%s: aggDef stores %s, which no metric reads", info.Name, c)
			}
		}
	}
}
