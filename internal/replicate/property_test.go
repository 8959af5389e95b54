package replicate

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/warehouse"
)

// TestPropertyExcludedResourceNeverLeaks: for arbitrary interleavings
// of inserts/updates/deletes across resources, no event for an
// excluded resource ever survives the rewriter — the paper's security
// guarantee that "potentially sensitive data does not ever get
// replicated to the federation hub" (§II-C4).
func TestPropertyExcludedResourceNeverLeaks(t *testing.T) {
	def := jobs.Def()
	resCol := -1
	for i, c := range def.Columns {
		if c.Name == "resource" {
			resCol = i
		}
	}
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rw := NewRewriter("sat", Filter{ExcludeResources: map[string]bool{"secret": true}})
		d := def.Clone()
		if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvCreateTable, Schema: "modw", Table: "jobfact", Def: &d}); !ok {
			return false
		}
		resources := []string{"open-a", "open-b", "secret"}
		for i := 0; i < int(nOps); i++ {
			row := make([]any, len(def.Columns))
			res := resources[rng.Intn(len(resources))]
			row[resCol] = res
			kind := []warehouse.EventKind{warehouse.EvInsert, warehouse.EvUpdate, warehouse.EvDelete}[rng.Intn(3)]
			ev := warehouse.Event{Kind: kind, Schema: "modw", Table: "jobfact"}
			if kind == warehouse.EvDelete {
				ev.Old = row
			} else {
				ev.Row = row
			}
			out, ok := rw.Process(ev)
			if res == "secret" && ok {
				return false // leak!
			}
			if res != "secret" && !ok {
				return false // over-filtering
			}
			if ok && out.Schema != "fed_sat" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPumpEquivalentToSnapshot: replicating any random
// mutation history via the binlog yields the same hub table contents
// as shipping a dump (tight and loose federation agree). The dump is
// the satellite's snapshot events through the route's rewriter, and
// the hub lands it by forcing every event into the member's schema and
// applying it, as Satellite.DumpForRoute and Hub.LoadLooseDump do.
func TestPropertyPumpEquivalentToSnapshot(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sat := warehouse.Open("sat")
		if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
			return false
		}
		tab, _ := sat.TableIn(jobs.SchemaName, jobs.FactTable)
		base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
		sat.Do(func() error {
			for i := 0; i < int(nOps); i++ {
				id := int64(rng.Intn(24) + 1)
				switch rng.Intn(3) {
				case 0, 1:
					tab.Upsert(map[string]any{
						jobs.ColJobID: id, jobs.ColResource: "r", jobs.ColUser: "u",
						jobs.ColPI: "p", jobs.ColQueue: "q", jobs.ColNodes: int64(1),
						jobs.ColCores:  int64(rng.Intn(64) + 1),
						jobs.ColSubmit: base, jobs.ColStart: base, jobs.ColEnd: base.Add(time.Hour),
						jobs.ColWallSec: float64(rng.Intn(100000)), jobs.ColWaitSec: 0.0,
						jobs.ColCPUHours: rng.Float64() * 100, jobs.ColXDSU: rng.Float64() * 100,
						jobs.ColDayKey: int64(20170101), jobs.ColMonthKey: int64(201701),
					})
				case 2:
					tab.DeleteByKey("r", id)
				}
			}
			return nil
		})

		// Tight: replay the binlog.
		tight := warehouse.Open("hub-tight")
		if _, err := pump(sat, tight, NewRewriter("sat", Filter{}), 0); err != nil {
			return false
		}
		// Loose: dump and load.
		loose := warehouse.Open("hub-loose")
		var dump bytes.Buffer
		lsn, evs := sat.SnapshotEvents([]string{jobs.SchemaName})
		out, _ := NewRewriter("sat", Filter{}).ProcessBatch(evs)
		if err := warehouse.WriteSnapshot(&dump, sat.Name(), lsn, out); err != nil {
			return false
		}
		_, loaded, err := warehouse.ReadSnapshot(&dump)
		if err != nil {
			return false
		}
		for i := range loaded {
			loaded[i].Schema = HubSchema("sat")
		}
		if _, err := loose.ApplyAll(loaded); err != nil {
			return false
		}

		tt, err1 := tight.TableIn(HubSchema("sat"), jobs.FactTable)
		lt, err2 := loose.TableIn(HubSchema("sat"), jobs.FactTable)
		if err1 != nil || err2 != nil {
			return false
		}
		if tt.Len() != lt.Len() || tt.Len() != tab.Len() {
			return false
		}
		equal := true
		tight.View(func() error {
			tt.Scan(func(r warehouse.Row) bool {
				lr, ok := lt.GetByKey(r.Get(jobs.ColResource), r.Get(jobs.ColJobID))
				if !ok || lr.Float(jobs.ColCPUHours) != r.Float(jobs.ColCPUHours) ||
					lr.Int(jobs.ColCores) != r.Int(jobs.ColCores) {
					equal = false
					return false
				}
				return true
			})
			return nil
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
