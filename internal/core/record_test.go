package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// aggCells reads every aggregation-table row of one realm keyed by
// period and primary key, its other cells as bits: floats by
// math.Float64bits, integers as they are.
func aggCells(t *testing.T, hub *Hub, realmName string) map[string][]uint64 {
	t.Helper()
	info, _ := hub.Registry.Get(realmName)
	out := map[string][]uint64{}
	hub.DB.View(func() error {
		for _, p := range aggregate.Periods() {
			tab, err := hub.DB.TableIn(aggregate.AggSchema(info), aggregate.AggTableName(info.FactTable, p))
			if err != nil {
				t.Fatal(err)
			}
			def := tab.Def()
			tab.Scan(func(r warehouse.Row) bool {
				key := p.String()
				var cells []uint64
				for i, c := range def.Columns {
					if i < len(def.PrimaryKey) {
						key += fmt.Sprintf("|%v", r.Get(c.Name))
						continue
					}
					switch v := r.Get(c.Name).(type) {
					case float64:
						cells = append(cells, math.Float64bits(v))
					case int64:
						cells = append(cells, uint64(v))
					default:
						t.Fatalf("aggregation column %s holds %T", c.Name, v)
					}
				}
				out[key] = cells
				return true
			})
		}
		return nil
	})
	return out
}

// sameCells fails the test unless served and rebuilt hold the same
// keys with bit-identical cells.
func sameCells(t *testing.T, step string, served, rebuilt map[string][]uint64) {
	t.Helper()
	if len(served) != len(rebuilt) {
		t.Fatalf("%s: hub served %d aggregation rows, a rebuild computes %d", step, len(served), len(rebuilt))
	}
	for k, want := range rebuilt {
		got, ok := served[k]
		if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: row %s served %v, rebuilt %v", step, k, got, want)
		}
	}
}

// TestHubFollowsRecordOfRandomBatches: random member batches — inserts,
// updates of present and of absent keys, deletes of rows inserted
// earlier in the same batch and of older ones, with fact events in two
// member schemas in one batch — never leave the hub dirty, and the
// Jobs aggregation tables the hub maintains from each transaction's
// record equal a fresh rebuild key for key, bit for bit. Measures are
// whole and half hours and integer counts, so no cell depends on the
// order facts are summed in.
func TestHubFollowsRecordOfRandomBatches(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { hubFollowsRecord(t, seed) })
	}
}

func hubFollowsRecord(t *testing.T, seed int64) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	schemas := []string{replicate.HubSchema("a"), replicate.HubSchema("b")}
	for _, m := range []string{"a", "b"} {
		if err := hub.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	fact := func(resource string, id int64) []any {
		end := t0.Add(time.Duration(rng.Intn(90*24)) * 30 * time.Minute)
		wall := time.Duration(1+rng.Intn(20)) * 30 * time.Minute
		row, err := jobs.FactRowFromRecord(shredder.JobRecord{LocalJobID: id, User: fmt.Sprintf("user%d", rng.Intn(4)),
			Account: "acct", Resource: resource, Queue: "batch", Nodes: 1, Cores: int64(1 + rng.Intn(16)),
			Submit: end.Add(-wall - time.Hour), Start: end.Add(-wall), End: end}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	def := jobs.Def()
	var lsn uint64
	var batch []warehouse.Event
	emit := func(ev warehouse.Event) {
		lsn++
		ev.LSN, ev.Time, ev.Table = lsn, t0, jobs.FactTable
		batch = append(batch, ev)
	}
	for _, s := range schemas {
		batch = append(batch, warehouse.Event{Kind: warehouse.EvCreateSchema, Schema: s},
			warehouse.Event{Kind: warehouse.EvCreateTable, Schema: s, Table: jobs.FactTable, Def: &def})
	}
	type key struct {
		schema, resource string
		id               int64
	}
	present := map[key][]any{}
	var keys []key // present keys, in insertion order
	nextID := int64(1)
	kinds := map[string]int{}
	for round := 1; round <= 40; round++ {
		var fresh []key // inserted by this batch
		for n := 3 + rng.Intn(12); n > 0; n-- {
			s := schemas[rng.Intn(2)]
			resource := []string{"clusterA", "clusterB"}[rng.Intn(2)]
			switch op := rng.Intn(6); {
			case op <= 1 || len(keys) == 0: // insert
				k := key{s, resource, nextID}
				nextID++
				row := fact(resource, k.id)
				emit(warehouse.Event{Kind: warehouse.EvInsert, Schema: s, Row: row})
				present[k], keys, fresh = row, append(keys, k), append(fresh, k)
				kinds["insert"]++
			case op == 2: // update of a present key
				k := keys[rng.Intn(len(keys))]
				row := fact(k.resource, k.id)
				emit(warehouse.Event{Kind: warehouse.EvUpdate, Schema: k.schema, Row: row})
				present[k] = row
				kinds["update present"]++
			case op == 3: // update of an absent key: the upsert inserts
				k := key{s, resource, nextID}
				nextID++
				row := fact(resource, k.id)
				emit(warehouse.Event{Kind: warehouse.EvUpdate, Schema: s, Row: row})
				present[k], keys = row, append(keys, k)
				kinds["update absent"]++
			default: // delete, of a row this batch inserted when there is one
				pool, what := keys, "delete older"
				if len(fresh) > 0 && op == 4 {
					pool, what = fresh, "delete same batch"
				}
				k := pool[rng.Intn(len(pool))]
				if _, ok := present[k]; !ok {
					continue
				}
				emit(warehouse.Event{Kind: warehouse.EvDelete, Schema: k.schema, Old: present[k]})
				delete(present, k)
				for i := range keys {
					if keys[i] == k {
						keys = append(keys[:i], keys[i+1:]...)
						break
					}
				}
				kinds[what]++
			}
		}
		if err := hub.ApplyBatch("a", lsn, batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
		if st := hub.Status(); st.Dirty {
			t.Fatalf("round %d: hub dirty after ApplyBatch returned: %v", round, st.DirtyRealms)
		}
		if round%4 == 0 {
			served := aggCells(t, hub, "Jobs")
			if _, err := hub.AggregateFederation(); err != nil {
				t.Fatal(err)
			}
			sameCells(t, fmt.Sprintf("round %d", round), served, aggCells(t, hub, "Jobs"))
		}
	}
	for _, k := range []string{"insert", "update present", "update absent", "delete same batch", "delete older"} {
		if kinds[k] == 0 {
			t.Fatalf("the batches held no %s: %v", k, kinds)
		}
	}
	if n := rawJobs(hub, []string{"a", "b"}); n != len(present) {
		t.Fatalf("hub holds %d job rows, the batches leave %d", n, len(present))
	}
}

// TestHubAggregateAllKeepsMemberData: AggregateAll, which a hub
// inherits from Instance, rebuilds over the hub's rebuild sources —
// every member's schema — so the charts keep the members' facts.
func TestHubAggregateAllKeepsMemberData(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("x"); err != nil {
		t.Fatal(err)
	}
	sat, err := NewSatellite(satCfg("x", []string{"clusterA"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "clusterA", 30, time.Hour, 1)
	evs, err := sat.DB.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, upTo := replicate.NewRewriter("x", replicate.Filter{}).ProcessBatch(evs)
	if err := hub.ApplyBatch("x", upTo, out); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"after the batch", "after AggregateAll"} {
		if n, err := chartJobs(hub); err != nil || n != 30 {
			t.Fatalf("%s: the hub's Jobs chart shows %d jobs (err %v), want member x's 30", step, n, err)
		}
		if err := hub.AggregateAll(); err != nil {
			t.Fatal(err)
		}
	}
}
