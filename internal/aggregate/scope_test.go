package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// aggBits renders every row of every aggregation table of a realm by
// group: period and key columns to the row's cells, floats as their bit
// patterns, so two states compare key for key and bit for bit.
func aggBits(t *testing.T, db *warehouse.DB, info realm.Info) map[string]string {
	t.Helper()
	out := map[string]string{}
	db.View(func() error {
		for _, p := range Periods() {
			tab, err := db.TableIn(AggSchema(info), AggTableName(info.FactTable, p))
			if err != nil {
				t.Fatal(err)
			}
			nKey := 1 + len(info.Dimensions)
			tab.Scan(func(r warehouse.Row) bool {
				key, cells := p.String(), ""
				for i, v := range r.Values() {
					if f, ok := v.(float64); ok {
						v = fmt.Sprintf("%016x", math.Float64bits(f))
					}
					if i < nKey {
						key += fmt.Sprintf("|%v", v)
					} else {
						cells += fmt.Sprintf("|%v", v)
					}
				}
				if _, dup := out[key]; dup {
					t.Fatalf("aggregation group %s stored twice", key)
				}
				out[key] = cells
				return true
			})
		}
		return nil
	})
	return out
}

// scopeRealm is one realm the scoped-recompute property runs over: how
// to set it up and how to draw a random fact row from a small key space,
// so that batches collide with stored rows.
type scopeRealm struct {
	info   realm.Info
	levels []config.AggregationLevels
	def    warehouse.TableDef
	row    func(rng *rand.Rand) []any
}

func storageScopeRealm() scopeRealm {
	return scopeRealm{
		info: storage.RealmInfo(),
		def:  storage.Def(),
		row: func(rng *rand.Rand) []any {
			return storage.FactValues(storage.Snapshot{
				Resource: []string{"fs1", "fs2"}[rng.Intn(2)], ResourceType: "persistent",
				Mountpoint: []string{"/home", "/proj"}[rng.Intn(2)],
				User:       fmt.Sprintf("u%d", rng.Intn(3)), PI: "pi",
				Timestamp: time.Date(2017, time.Month(3+rng.Intn(2)), 1+rng.Intn(4), rng.Intn(24), 0, 0, 0, time.UTC),
				FileCount: rng.Int63n(1000), LogicalBytes: rng.Int63n(1 << 40), PhysicalBytes: rng.Int63n(1 << 40),
				SoftThreshold: 3 << 30, HardThreshold: 7 << 30,
			})
		},
	}
}

func cloudScopeRealm() scopeRealm {
	return scopeRealm{
		info:   cloud.RealmInfo(),
		levels: []config.AggregationLevels{config.CloudVMMemory()},
		def:    cloud.SessionDef(),
		row: func(rng *rand.Rand) []any {
			start := time.Date(2017, 6, 1+rng.Intn(3), rng.Intn(24), rng.Intn(60), 0, 0, time.UTC)
			// Few distinct end times: sessions of one group tie on their
			// timestamp, so last_* depends on the fold order.
			end := time.Date(2017, 6, 4+rng.Intn(2), 6*rng.Intn(2), 0, 0, 0, time.UTC)
			return cloud.SessionValues(cloud.Session{
				VMID: fmt.Sprintf("vm%d", rng.Intn(6)), Resource: "cloud",
				User: fmt.Sprintf("u%d", rng.Intn(2)), Project: "p", InstanceType: "m1",
				Cores: 1 + rng.Int63n(4), MemoryGB: []float64{1.5, 3, 12.25}[rng.Intn(3)], DiskGB: 20,
				Start: start, End: end, Ended: rng.Intn(2) == 0,
			}, rng.Intn(4))
		},
	}
}

// TestScopedRecomputeMatchesRebuild: after random batches of inserts,
// upserts and deletes across two source schemas, recomputing just the
// scope of the batch's old and new rows leaves every aggregation table
// equal — key for key, bit for bit, row count included, so groups the
// batch emptied are gone — to a fresh rebuild of the same facts. The
// Storage realm's SUM_LAST and the Cloud realm's tied session end times
// make the fold order part of the answer.
func TestScopedRecomputeMatchesRebuild(t *testing.T) {
	for _, sr := range []scopeRealm{storageScopeRealm(), cloudScopeRealm()} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", sr.info.Name, seed), func(t *testing.T) {
				runScopedRecompute(t, sr, seed)
			})
		}
	}
}

func runScopedRecompute(t *testing.T, sr scopeRealm, seed int64) {
	info := sr.info
	schemas := []string{info.Schema, "fed_b"}
	open := func() (*warehouse.DB, *Engine) {
		db := warehouse.Open("scoped")
		if _, err := realm.Setup(db, sr.info); err != nil {
			t.Fatal(err)
		}
		if _, err := db.EnsureSchema("fed_b").EnsureTable(sr.def); err != nil {
			t.Fatal(err)
		}
		eng, err := New(db, sr.levels)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Setup(info); err != nil {
			t.Fatal(err)
		}
		return db, eng
	}
	scopedDB, scopedEng := open()
	rebuiltDB, rebuiltEng := open()
	sources := factSources(schemas)

	rng := rand.New(rand.NewSource(seed))
	var pkCols []int
	for _, c := range sr.def.PrimaryKey {
		for i, col := range sr.def.Columns {
			if col.Name == c {
				pkCols = append(pkCols, i)
			}
		}
	}
	keyOf := func(row []any) []any {
		key := make([]any, len(pkCols))
		for i, c := range pkCols {
			key[i] = row[c]
		}
		return key
	}
	for batch := 0; batch < 40; batch++ {
		// The same mutations on both warehouses; the scoped side keeps
		// the write's record of each source's old and new rows.
		type op struct {
			schema int
			row    []any
			del    bool
		}
		var ops []op
		for n := 1 + rng.Intn(6); n > 0; n-- {
			ops = append(ops, op{schema: rng.Intn(len(schemas)), row: sr.row(rng), del: rng.Intn(4) == 0})
		}
		var rec warehouse.Record
		for side, db := range []*warehouse.DB{scopedDB, rebuiltDB} {
			tabs := make([]*warehouse.Table, len(schemas))
			for i, s := range schemas {
				var err error
				if tabs[i], err = db.TableIn(s, info.FactTable); err != nil {
					t.Fatal(err)
				}
			}
			r, err := db.Write(func() error {
				for _, o := range ops {
					tab := tabs[o.schema]
					if o.del {
						tab.DeleteByKey(keyOf(o.row)...)
						continue
					}
					if err := tab.UpsertRow(o.row); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if side == 0 {
				rec = r
			}
		}
		// A batch of deletes of absent keys leaves the scope empty:
		// nothing to recompute.
		scope := newScope()
		for _, schema := range schemas {
			c := rec.Of(schema, info.FactTable)
			if c.Data == nil {
				continue
			}
			sc, err := scopedEng.scopeOf(info, c.Data, slices.Concat(c.Replaced, c.Inserted))
			if err != nil {
				t.Fatal(err)
			}
			for pi, groups := range sc {
				for k, g := range groups {
					scope[pi][k] = g
				}
			}
		}
		if _, err := scopedEng.ReaggregateFrom(info, sources, scope); err != nil {
			t.Fatal(err)
		}
		if _, err := rebuiltEng.Reaggregate(info, schemas); err != nil {
			t.Fatal(err)
		}
		got, want := aggBits(t, scopedDB, info), aggBits(t, rebuiltDB, info)
		for k, w := range want {
			if g, ok := got[k]; !ok {
				t.Fatalf("batch %d: group %s missing after the scoped recompute", batch, k)
			} else if g != w {
				t.Fatalf("batch %d: group %s differs:\n scoped  %s\n rebuilt %s", batch, k, g, w)
			}
		}
		if len(got) != len(want) {
			for k := range got {
				if _, ok := want[k]; !ok {
					t.Fatalf("batch %d: scoped recompute kept group %s a rebuild does not have", batch, k)
				}
			}
		}
	}
}

// TestScopedRecomputeWithPushdownSourceRebuilds: a pagg source cannot
// be restricted to groups, so a scope over a realm with one is ignored
// and the realm rebuilt whole — an empty scope included.
func TestScopedRecomputeWithPushdownSourceRebuilds(t *testing.T) {
	db, eng, info := fixture(t, 40, 5)
	rows := factRowsPositional(t, db, info.Schema, info.FactTable)
	if _, err := eng.ApplyDelta(info, "fed_push", Delta{Realm: info.Name, Reset: true}); err != nil {
		t.Fatal(err)
	}
	sources := []Source{{Schema: info.Schema}, {Schema: "fed_push", Pushdown: true}}
	n, err := eng.ReaggregateFrom(info, sources, newScope())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("recompute with a pushdown source folded %d facts, want all %d", n, len(rows))
	}
}

// TestRefreshAcrossACompactingCommit: a write that deletes three facts
// in four and rewrites some others commits a compaction of the fact
// table, so the table's vectors are new before the write's Refresh
// reads the rows it names. The Refresh reads them from the write's view
// of the vectors as they stood, and leaves every aggregation table bit
// for bit what a rebuild of the same facts gives.
func TestRefreshAcrossACompactingCommit(t *testing.T) {
	db := warehouse.Open("compacting")
	info := jobs.RealmInfo()
	if _, err := realm.Setup(db, info); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableIn(info.Schema, info.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	fact := func(id int64, cores int64) []any {
		end := base.Add(time.Duration(id*37%2000) * time.Hour)
		row, err := jobs.FactRowFromRecord(shredder.JobRecord{LocalJobID: id, User: fmt.Sprintf("u%d", id%7),
			Account: "a", Resource: []string{"r1", "r2"}[id%2], Queue: "q", Nodes: 1, Cores: cores,
			Submit: end.Add(-3 * time.Hour), Start: end.Add(-time.Duration(1+id%5) * time.Hour), End: end}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	if _, err := eng.Write([]string{info.Name}, func() error {
		for id := int64(1); id <= 600; id++ {
			if err := tab.InsertRow(fact(id, 1+id%64)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Write([]string{info.Name}, func() error {
		for id := int64(1); id <= 600; id++ {
			switch {
			case id%4 != 0:
				tab.DeleteByKey([]string{"r1", "r2"}[id%2], id)
			case id%8 == 0:
				if err := tab.UpsertRow(fact(id, 100+id%9)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Of(info.Schema, info.FactTable)
	if td := tab.Data(); td.Rows() != td.Len() || c.Data.Rows() != 675 || len(c.Replaced) != 525 || len(c.Inserted) != 75 {
		t.Fatalf("the write did not compact the table across its change: %d slots for %d rows; the change names %d replaced and %d written rows in %d slots",
			td.Rows(), td.Len(), len(c.Replaced), len(c.Inserted), c.Data.Rows())
	}
	if stale := eng.Stale(); len(stale) != 0 {
		t.Fatalf("refresh left %v stale", stale)
	}
	refreshed := aggBits(t, db, info)
	if _, err := eng.Rebuild(info); err != nil {
		t.Fatal(err)
	}
	rebuilt := aggBits(t, db, info)
	if len(refreshed) != len(rebuilt) {
		t.Fatalf("refresh left %d groups, a rebuild %d", len(refreshed), len(rebuilt))
	}
	for k, w := range rebuilt {
		if g := refreshed[k]; g != w {
			t.Fatalf("group %s: refreshed %s, rebuilt %s", k, g, w)
		}
	}
}
