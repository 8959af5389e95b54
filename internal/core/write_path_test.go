package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// aggBits renders every aggregation-table row of one realm, float
// cells by their bits, sorted: tables that render alike are equal key
// for key and bit for bit.
func aggBits(t *testing.T, in *Instance, realmName string) []string {
	t.Helper()
	info, ok := in.Registry.Get(realmName)
	if !ok {
		t.Fatalf("no realm %q", realmName)
	}
	var out []string
	in.DB.View(func() error {
		for _, p := range aggregate.Periods() {
			tab, err := in.DB.TableIn(aggregate.AggSchema(info), aggregate.AggTableName(info.FactTable, p))
			if err != nil {
				t.Fatal(err)
			}
			tab.Scan(func(r warehouse.Row) bool {
				var b strings.Builder
				b.WriteString(p.String())
				for _, v := range r.Values() {
					if f, ok := v.(float64); ok {
						v = fmt.Sprintf("%016x", math.Float64bits(f))
					}
					fmt.Fprintf(&b, "|%v", v)
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

// jobInsertEvents returns the replicated insert events of n jobs of
// member sat, ids from 1, each ending an hour after the last, and the
// position they reach.
func jobInsertEvents(t *testing.T, n int) ([]warehouse.Event, uint64) {
	t.Helper()
	sat := warehouse.Open("sat")
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	for id := int64(1); id <= int64(n); id++ {
		row, err := jobs.FactFromRecord(shredder.JobRecord{LocalJobID: id, User: "u", Account: "a",
			Resource: "r", Queue: "q", Nodes: 1, Cores: 4, Submit: base, Start: base,
			End: base.Add(time.Duration(id) * time.Hour)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := sat.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, upTo := replicate.NewRewriter("sat", replicate.Filter{}).ProcessBatch(evs)
	return out, upTo
}

// checkCurrent fails unless the hub reports no stale realm, its Jobs
// chart read without EnsureAggregated counts want facts, and its Jobs
// tables equal, bit for bit, what AggregateFederation then writes.
func checkCurrent(t *testing.T, hub *Hub, want float64) {
	t.Helper()
	if st := hub.Status(); st.Dirty {
		t.Fatalf("dirty %v %v after the batch; want the applied rows refreshed", st.Dirty, st.DirtyRealms)
	}
	series, err := hub.Instance.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Aggregate != want {
		t.Fatalf("Jobs chart without EnsureAggregated = %+v, want %g jobs", series, want)
	}
	live := aggBits(t, hub.Instance, "Jobs")
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	if rebuilt := aggBits(t, hub.Instance, "Jobs"); !slices.Equal(live, rebuilt) {
		t.Fatalf("Jobs tables after the batch differ from a rebuild:\n live:    %v\n rebuilt: %v", live, rebuilt)
	}
}

// TestFailedBatchRefreshesAppliedPrefix: a member batch of good inserts
// followed by an insert that repeats a key fails at that insert, and the
// inserts before it stay applied. The hub refreshes them as it would a
// batch that succeeded: the realm is not left for a rebuild, and the
// aggregates already count them.
func TestFailedBatchRefreshesAppliedPrefix(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("sat"); err != nil {
		t.Fatal(err)
	}
	const n = 6
	evs, upTo := jobInsertEvents(t, n)
	first := slices.IndexFunc(evs, func(ev warehouse.Event) bool { return ev.Kind == warehouse.EvInsert })
	dup := evs[first]
	dup.LSN = upTo + 1
	if err := hub.ApplyBatch("sat", upTo+1, append(evs, dup)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("ApplyBatch of a repeated key = %v, want a duplicate-key error", err)
	}
	if got := hub.DB.Count(replicate.HubSchema("sat"), jobs.FactTable); got != n {
		t.Fatalf("hub holds %d facts, want the %d applied before the failure", got, n)
	}
	checkCurrent(t, hub, n)
}

// TestFailedBatchResumesAfterAppliedPrefix: a tight batch that fails
// part-way moves the member's position to the last event that applied,
// so the sender's retry starts at the failing event instead of
// re-sending events the hub holds (which would fail on their own keys
// and wedge the member), and it goes on once that event is gone. A
// failed batch never moves the position back.
func TestFailedBatchResumesAfterAppliedPrefix(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("sat"); err != nil {
		t.Fatal(err)
	}
	const n = 6
	all, _ := jobInsertEvents(t, n+1)
	evs, last := all[:len(all)-1], all[len(all)-1]
	prefixEnd := evs[len(evs)-1].LSN
	first := slices.IndexFunc(evs, func(ev warehouse.Event) bool { return ev.Kind == warehouse.EvInsert })
	dup := evs[first]
	dup.LSN = prefixEnd + 1
	last.LSN = prefixEnd + 2
	position := func() uint64 {
		t.Helper()
		pos, _ := hub.Resume("sat")
		if m := hub.Members()[0]; m.Position != pos {
			t.Fatalf("member position %d, stored position %d", m.Position, pos)
		}
		return pos
	}

	if err := hub.ApplyBatch("sat", last.LSN, append(slices.Clone(evs), dup, last)); err == nil {
		t.Fatal("ApplyBatch of a repeated key succeeded")
	}
	if got := position(); got != prefixEnd {
		t.Fatalf("position after a batch failing at LSN %d = %d, want %d (the applied prefix)", dup.LSN, got, prefixEnd)
	}
	// The retry sends what follows the position: it fails at once, on
	// the event that failed before, and leaves the position alone.
	if err := hub.ApplyBatch("sat", last.LSN, []warehouse.Event{dup, last}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("retry = %v, want the duplicate key again", err)
	}
	if got, m := position(), hub.Members()[0]; got != prefixEnd || m.Failures != 2 {
		t.Fatalf("after the retry: position %d, failures %d; want %d, 2", got, m.Failures, prefixEnd)
	}
	// Once the failing event is gone, the member goes on.
	if err := hub.ApplyBatch("sat", last.LSN, []warehouse.Event{last}); err != nil {
		t.Fatal(err)
	}
	if got, m := position(), hub.Members()[0]; got != last.LSN || m.Failures != 0 || m.LastError != "" {
		t.Fatalf("after the good batch: position %d, member %+v; want %d and no failures", got, m, last.LSN)
	}
	if got := hub.DB.Count(replicate.HubSchema("sat"), jobs.FactTable); got != n+1 {
		t.Fatalf("hub holds %d facts, want %d", got, n+1)
	}
	// A replay of old events that fails after applying some of them
	// leaves the position where it is.
	if err := hub.ApplyBatch("sat", dup.LSN, append(slices.Clone(evs[:first]), dup)); err == nil {
		t.Fatal("replayed repeated key applied")
	}
	if got := position(); got != last.LSN {
		t.Fatalf("a failed replay moved the position to %d, want %d", got, last.LSN)
	}
	checkCurrent(t, hub, n+1)
}

// TestFailedPositionWriteLeavesRealmsCurrent: the hub refreshes a
// batch's realms before it writes the member's position, so a position
// write that fails leaves aggregates that already match the applied
// rows, and no realm for a rebuild.
func TestFailedPositionWriteLeavesRealmsCurrent(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("sat"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.DB.ApplyAll([]warehouse.Event{{Kind: warehouse.EvDropSchema, Schema: replicate.PositionSchema}}); err != nil {
		t.Fatal(err)
	}
	const n = 4
	evs, upTo := jobInsertEvents(t, n)
	if err := hub.ApplyBatch("sat", upTo, evs); err == nil {
		t.Fatal("ApplyBatch wrote a position into a dropped table")
	}
	checkCurrent(t, hub, n)
}

// TestWholeChangeMarksRealmStale: a write that replaces a fact table
// whole (here a truncate) succeeds and leaves the realm stale, on a
// satellite and on a hub alike, and the next EnsureAggregated rebuilds
// it to what a fresh rebuild writes.
func TestWholeChangeMarksRealmStale(t *testing.T) {
	sat, err := NewSatellite(satCfg("S", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("sat"); err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 5, time.Hour, 1)
	evs, upTo := jobInsertEvents(t, 5)
	if err := hub.ApplyBatch("sat", upTo, evs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		role   string
		in     *Instance
		schema string
	}{{"satellite", sat.Instance, jobs.SchemaName}, {"hub", hub.Instance, replicate.HubSchema("sat")}} {
		tab, err := c.in.DB.TableIn(c.schema, jobs.FactTable)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.in.Engine.Write([]string{"Jobs"}, func() error { tab.Truncate(); return nil }); err != nil {
			t.Fatalf("%s: truncate through Engine.Write = %v, want nil", c.role, err)
		}
		if got := c.in.Engine.Stale(); !slices.Equal(got, []string{"Jobs"}) {
			t.Fatalf("%s: stale realms after a truncate = %v, want [Jobs]", c.role, got)
		}
		if err := c.in.EnsureAggregated(); err != nil {
			t.Fatal(err)
		}
		if got := c.in.Engine.Stale(); len(got) != 0 {
			t.Fatalf("%s: stale realms after EnsureAggregated = %v", c.role, got)
		}
		if got := aggBits(t, c.in, "Jobs"); len(got) != 0 {
			t.Fatalf("%s: Jobs aggregates of a truncated table: %v", c.role, got)
		}
	}
}
