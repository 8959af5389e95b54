package rest

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// aggRows renders every aggregation-table row of one realm, sorted.
func aggRows(t *testing.T, in *core.Instance, realmName string) []string {
	t.Helper()
	info, _ := in.Registry.Get(realmName)
	var out []string
	in.DB.View(func() error {
		for _, p := range aggregate.Periods() {
			tab, err := in.DB.TableIn(aggregate.AggSchema(info), aggregate.AggTableName(info.FactTable, p))
			if err != nil {
				t.Fatal(err)
			}
			tab.Scan(func(r warehouse.Row) bool {
				out = append(out, fmt.Sprint(p, r.Values()))
				return true
			})
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// checkFresh fails unless the realm's aggregation tables, as the last
// write left them, hold rows and equal what rebuild then writes.
func checkFresh(t *testing.T, step string, in *core.Instance, realmName string, rebuild func() error) {
	t.Helper()
	live := aggRows(t, in, realmName)
	if err := rebuild(); err != nil {
		t.Fatal(err)
	}
	if want := aggRows(t, in, realmName); len(live) == 0 || !slices.Equal(live, want) {
		t.Fatalf("%s: %s aggregates after the write (%d rows):\n%v\na fresh rebuild (%d rows):\n%v",
			step, realmName, len(live), live, len(want), want)
	}
}

// submit posts one portal user's gateway submissions, each for a job
// of resource rush submitted on 2017-01-10, and fails unless they are
// accepted.
func submit(t *testing.T, srv http.Handler, token, user string, ids ...int64) {
	t.Helper()
	var reqs []gatewaySubmissionRequest
	for _, id := range ids {
		reqs = append(reqs, gatewaySubmissionRequest{Gateway: "cipres", PortalUser: user, Resource: "rush", JobID: id,
			Submitted: time.Date(2017, 1, 10, 0, 0, 0, 0, time.UTC)})
	}
	if rec := post(t, srv, token, "/api/gateways/submissions", reqs); rec.Code != http.StatusOK {
		t.Fatalf("submissions: %d %s", rec.Code, rec.Body)
	}
}

// charge posts an award for project a and a charge run.
func charge(t *testing.T, srv http.Handler, token string) {
	t.Helper()
	award := allocationRequest{Project: "a", Award: 10000,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)}
	if rec := post(t, srv, token, "/api/allocations", award); rec.Code != http.StatusCreated {
		t.Fatalf("add allocation: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, srv, token, "/api/allocations/charge", nil); rec.Code != http.StatusOK {
		t.Fatalf("charge: %d %s", rec.Code, rec.Body)
	}
}

// ingestRush ingests jobs of resource rush, PI a: 8 cores for 2 hours,
// 16 CPU hours and XD SUs each, so every sum is a whole number and no
// cell depends on fold order.
func ingestRush(t *testing.T, in *core.Instance, ids ...int64) {
	t.Helper()
	var recs []shredder.JobRecord
	for _, id := range ids {
		end := time.Date(2017, 3, 10, 12, 0, 0, 0, time.UTC)
		recs = append(recs, shredder.JobRecord{LocalJobID: id, User: "u0", Account: "a", Resource: "rush", Queue: "batch",
			Nodes: 1, Cores: 8, Submit: end.Add(-3 * time.Hour), Start: end.Add(-2 * time.Hour), End: end})
	}
	if st, err := in.Pipeline.IngestJobRecords(recs); err != nil || st.Ingested != len(ids) {
		t.Fatalf("ingest: %s, %v", st, err)
	}
}

// TestGatewayAndAllocationChartsFollowWrites: each Gateways submission
// and each allocation charge run leaves the realm's aggregation tables
// equal, key for key, to a fresh rebuild, with no rebuild in between —
// on a satellite, and on a hub whose Gateways groups a member's
// replicated rows share. One submission re-attributes a job whose
// accounting record arrived later, which replaces its row.
func TestGatewayAndAllocationChartsFollowWrites(t *testing.T) {
	sat := testInstance(t)
	sat.Auth.Vault().Create(auth.User{Username: "ops", Role: auth.RoleStaff}, "opspassword1")
	satSrv := newServer(sat).Handler()
	satOps, satAdmin := loginAs(t, satSrv, "ops", "opspassword1"), login(t, satSrv)
	rebuildSat := sat.AggregateAll

	submit(t, satSrv, satOps, "alice", 1, 2)
	checkFresh(t, "satellite submission", sat, "Gateways", rebuildSat)
	submit(t, satSrv, satOps, "bob", 999) // job 999 is not accounted yet
	checkFresh(t, "satellite submission of an unaccounted job", sat, "Gateways", rebuildSat)
	ingestRush(t, sat, 999)
	submit(t, satSrv, satOps, "bob", 999)
	checkFresh(t, "satellite re-attribution", sat, "Gateways", rebuildSat)
	charge(t, satSrv, satAdmin)
	checkFresh(t, "satellite charge run", sat, "Allocations", rebuildSat)
	ingestRush(t, sat, 1000)
	if rec := post(t, satSrv, satAdmin, "/api/allocations/charge", nil); rec.Code != http.StatusOK {
		t.Fatalf("charge: %d %s", rec.Code, rec.Body)
	}
	checkFresh(t, "satellite charge of a new job", sat, "Allocations", rebuildSat)

	hub, err := core.NewHub(config.InstanceConfig{
		Name: "hub", Version: core.Version,
		Resources:         []config.ResourceConfig{{Name: "rush", Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory()},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub.Auth.Vault().Create(auth.User{Username: "admin", Role: auth.RoleManager}, "hunter2hunter2")
	hub.Auth.Vault().Create(auth.User{Username: "ops", Role: auth.RoleStaff}, "opspassword1")
	hubSrv := NewHubServer(hub).Handler()
	hubOps, hubAdmin := loginAs(t, hubSrv, "ops", "opspassword1"), login(t, hubSrv)
	rebuildHub := func() error { _, err := hub.AggregateFederation(); return err }
	if err := hub.Register("siteA"); err != nil {
		t.Fatal(err)
	}
	evs, err := sat.DB.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rw := replicate.NewRewriter("siteA", replicate.Filter{IncludeTables: map[string]bool{gateway.FactTable: true}})
	out, upTo := rw.ProcessBatch(evs)
	if err := hub.ApplyBatch("siteA", upTo, out); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "member batch", hub.Instance, "Gateways", rebuildHub)

	// Hub-local submissions of alice fall in the groups of the member's
	// rows of alice.
	submit(t, hubSrv, hubOps, "alice", 101)
	checkFresh(t, "hub submission", hub.Instance, "Gateways", rebuildHub)
	ingestRush(t, hub.Instance, 101)
	submit(t, hubSrv, hubOps, "alice", 101)
	checkFresh(t, "hub re-attribution", hub.Instance, "Gateways", rebuildHub)
	charge(t, hubSrv, hubAdmin)
	checkFresh(t, "hub charge run", hub.Instance, "Allocations", rebuildHub)
}

// TestChartRebuildsRealmAfterFailedRefresh: on a satellite, a write
// whose refresh fails (here a re-attribution whose group recompute
// reads a source that is gone) leaves its realm stale rather than
// behind with no mark, and the next chart request rebuilds it.
func TestChartRebuildsRealmAfterFailedRefresh(t *testing.T) {
	sat := testInstance(t)
	sat.Auth.Vault().Create(auth.User{Username: "ops", Role: auth.RoleStaff}, "opspassword1")
	srv := newServer(sat).Handler()
	ops, admin := loginAs(t, srv, "ops", "opspassword1"), login(t, srv)
	submit(t, srv, ops, "bob", 999) // job 999 is not accounted yet
	ingestRush(t, sat, 999)

	sat.Engine.Sources = func(realm.Info) []aggregate.Source { return []aggregate.Source{{Schema: "gone"}} }
	submit(t, srv, ops, "bob", 999) // replaces the row: a group recompute, which fails
	sat.Engine.Sources = nil
	if got := sat.Engine.Stale(); !slices.Equal(got, []string{"Gateways"}) {
		t.Fatalf("stale realms after a failed refresh = %v, want [Gateways]", got)
	}
	if rec := get(t, srv, admin, "/api/chart?realm=Gateways&metric="+gateway.MetricCPUHours+"&period=year"); rec.Code != http.StatusOK {
		t.Fatalf("chart: %d %s", rec.Code, rec.Body)
	}
	if got := sat.Engine.Stale(); len(got) != 0 {
		t.Fatalf("stale realms after a chart request = %v", got)
	}
	checkFresh(t, "chart after a failed refresh", sat, "Gateways", sat.AggregateAll)
}
