package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// TestConcurrentMembersReadersAndRebuilds drives every hub path that
// changes a realm's raw rows or its aggregates at once: two members
// apply batches concurrently — job inserts, updates and deletes,
// storage re-samples, one Jobs truncate and refill each — while
// readers poll the replicated raw rows and chart them, and an admin
// loop rebuilds the whole federation.
//
// A reader that has seen raw rows must never be served a chart that
// lacks them. No batch lowers a member's job count, so the jobs chart a
// reader gets may not show fewer jobs than the raw rows it counted just
// before. At quiescence the aggregation tables must equal a fresh
// rebuild's key for key (each member feeds groups of its own, and every
// measure is a whole number, so no cell depends on fold order), and the
// hub must be clean.
func TestConcurrentMembersReadersAndRebuilds(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"a", "b"}
	for _, m := range members {
		if err := hub.Register(m); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	chartReaders(t, hub, members, stop, &readers)
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := hub.AggregateFederation(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var writers sync.WaitGroup
	live := make([]int, len(members))
	for i, m := range members {
		writers.Add(1)
		go func(i int, m string) {
			defer writers.Done()
			live[i] = feedMember(t, hub, m, int64(i+1))
		}(i, m)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	got, err := chartJobs(hub)
	if err != nil {
		t.Fatal(err)
	}
	if want := live[0] + live[1]; got != want {
		t.Fatalf("jobs chart shows %d jobs, the members hold %d", got, want)
	}
	if st := hub.Status(); st.Dirty {
		t.Fatalf("hub dirty at quiescence: %v", st.DirtyRealms)
	}
	realms := []string{"Jobs", "Cloud", "Storage"}
	served := map[string][]string{}
	for _, name := range realms {
		served[name] = hubAggSnapshot(t, hub, name)
	}
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	for _, name := range realms {
		rebuilt := hubAggSnapshot(t, hub, name)
		if len(rebuilt) != len(served[name]) {
			t.Fatalf("%s: hub served %d aggregation rows, a rebuild computes %d", name, len(served[name]), len(rebuilt))
		}
		for i := range rebuilt {
			if rebuilt[i] != served[name][i] {
				t.Fatalf("%s row %d differs:\n served  %s\n rebuilt %s", name, i, served[name][i], rebuilt[i])
			}
		}
	}
}

// rawJobs counts the members' replicated job rows on the hub in one
// consistent view.
func rawJobs(hub *Hub, members []string) int {
	var tabs []*warehouse.Table
	for _, m := range members {
		if tab, err := hub.DB.TableIn(replicate.HubSchema(m), jobs.FactTable); err == nil {
			tabs = append(tabs, tab)
		}
	}
	n := 0
	hub.DB.View(func() error {
		for _, tab := range tabs {
			n += tab.Len()
		}
		return nil
	})
	return n
}

// chartJobs returns the job count the hub's Jobs chart serves.
func chartJobs(hub *Hub) (int, error) {
	series, err := hub.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	total := 0.0
	for _, s := range series {
		total += s.Aggregate
	}
	return int(total), err
}

// chartReaders starts two readers that, until stop closes, count the
// members' replicated job rows and then chart them: no writer lowers a
// member's job count, so a chart showing fewer jobs than the rows just
// counted is served aggregates behind raw rows the reader saw.
func chartReaders(t *testing.T, hub *Hub, members []string, stop <-chan struct{}, readers *sync.WaitGroup) {
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen := rawJobs(hub, members)
				got, err := chartJobs(hub)
				if err != nil {
					t.Error(err)
					return
				}
				if got < seen {
					t.Errorf("chart shows %d jobs after the reader saw %d replicated job rows", got, seen)
					return
				}
			}
		}()
	}
}

// TestLooseLoadRacesTightMemberAndReaders: a loose member re-ships ever
// larger dumps while a tight member applies batches and readers chart
// the hub. A loose load locks only the realms whose fact tables it
// carries, and the readers hold it to the bar above. At quiescence the
// chart counts both members' jobs and the hub is clean.
func TestLooseLoadRacesTightMemberAndReaders(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"a", "L"}
	for _, m := range members {
		if err := hub.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	looseCfg := satCfg("L", []string{"lr"}, "")
	looseCfg.Hubs = []config.HubRoute{{HubAddr: "offline", Mode: "loose"}}
	loose, err := NewSatellite(looseCfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 20, 3
	var dumps [][]byte
	for round := 0; round < rounds; round++ {
		ingestJobs(t, loose, "lr", perRound, time.Hour, int64(1+round*perRound))
		var dump bytes.Buffer
		if err := loose.DumpForRoute(looseCfg.Hubs[0], &dump); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, dump.Bytes())
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	chartReaders(t, hub, members, stop, &readers)
	var tightJobs int
	writers.Add(2)
	go func() {
		defer writers.Done()
		tightJobs = feedMember(t, hub, "a", 1)
	}()
	go func() {
		defer writers.Done()
		for _, dump := range dumps {
			if err := hub.LoadLooseDump("L", bytes.NewReader(dump)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	got, err := chartJobs(hub)
	if err != nil {
		t.Fatal(err)
	}
	if want := tightJobs + rounds*perRound; got != want {
		t.Fatalf("jobs chart shows %d jobs, the members hold %d", got, want)
	}
	if st := hub.Status(); st.Dirty {
		t.Fatalf("hub dirty at quiescence: %v", st.DirtyRealms)
	}
}

// feedMember plays one member: a feeder warehouse whose binlog ships to
// the hub batch by batch, like a tight sender's. Every batch inserts at
// least as many jobs as it deletes. It returns the member's job count.
func feedMember(t *testing.T, hub *Hub, member string, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	sat := warehouse.Open(member)
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Error(err)
		return 0
	}
	stTab, err := realm.Setup(sat, storage.RealmInfo())
	if err != nil {
		t.Error(err)
		return 0
	}
	jobTab, err := sat.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Error(err)
		return 0
	}
	resource := "cluster-" + member
	t0 := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	job := func(id int64) map[string]any {
		end := t0.Add(time.Duration(rng.Intn(24*20)) * time.Hour)
		wall := time.Duration(1+rng.Intn(8)) * time.Hour
		row, err := jobs.FactFromRecord(shredder.JobRecord{LocalJobID: id, User: fmt.Sprintf("%s-u%d", member, rng.Intn(3)),
			Account: "acct", Resource: resource, Queue: "batch", Nodes: 1, Cores: int64(1 + rng.Intn(16)),
			Submit: end.Add(-wall - time.Hour), Start: end.Add(-wall), End: end}, nil)
		if err != nil {
			panic(err)
		}
		return row
	}
	upsertSnap := func(day, hour int) error {
		files := int64(rng.Intn(1 << 20))
		row := storage.FactValues(storage.Snapshot{Resource: "fs-" + member, ResourceType: "persistent", Mountpoint: "/home",
			User: fmt.Sprintf("%s-u%d", member, rng.Intn(2)), PI: "p", Timestamp: t0.AddDate(0, 0, day).Add(time.Duration(hour) * time.Hour),
			FileCount: files, LogicalBytes: 1000 * files, PhysicalBytes: 1200 * files})
		return sat.Do(func() error { return stTab.UpsertRow(row) })
	}

	rw := replicate.NewRewriter(member, replicate.Filter{})
	var pos uint64
	var ids []int64
	var nextID int64 = 1
	for round := 0; round < 30; round++ {
		err := sat.Do(func() error {
			for n := 0; n < 3; n++ {
				if err := jobTab.Upsert(job(nextID)); err != nil {
					return err
				}
				ids = append(ids, nextID)
				nextID++
			}
			for n := 0; n < 2; n++ { // updates
				if err := jobTab.Upsert(job(ids[rng.Intn(len(ids))])); err != nil {
					return err
				}
			}
			if round%2 == 1 { // a delete
				k := rng.Intn(len(ids))
				jobTab.DeleteByKey(resource, ids[k])
				ids = append(ids[:k], ids[k+1:]...)
			}
			if round == 15 { // truncate and refill: the realm goes dirty
				jobTab.Truncate()
				for _, id := range ids {
					if err := jobTab.Upsert(job(id)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
			return 0
		}
		// A new day's sample, and a later re-sample of an earlier day.
		if err := upsertSnap(round, 6); err != nil {
			t.Error(err)
			return 0
		}
		if err := upsertSnap(round/2, 12+round%12); err != nil {
			t.Error(err)
			return 0
		}

		evs, err := sat.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Error(err)
			return 0
		}
		out, upTo := rw.ProcessBatch(evs)
		if err := hub.ApplyBatch(member, upTo, out); err != nil {
			t.Error(err)
			return 0
		}
		pos = upTo
	}
	return len(ids)
}

// TestHubLocalWritesRaceMemberBatchesAndRebuilds: hub-local Gateways
// submissions (through the hub's pipeline, which refreshes the
// aggregates under the realm's mutex) race a member's Gateways batches
// and a loop of federation rebuilds. Every second submission
// re-attributes the previous one's job once its accounting record
// arrived, which replaces its row and recomputes its groups; the others
// add a row. The writers keep going until the rebuild loop ends, so the
// last rebuilds overlap writes and nothing heals what they might lose.
// Every measure is a whole number, so no cell depends on fold order. At
// quiescence the aggregation tables must equal a fresh rebuild's key
// for key.
func TestHubLocalWritesRaceMemberBatchesAndRebuilds(t *testing.T) {
	cfg := hubCfg("hub")
	cfg.Resources = []config.ResourceConfig{{Name: "rush", Type: "hpc", SUFactor: 1.0}}
	hub, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("m"); err != nil {
		t.Fatal(err)
	}
	member := warehouse.Open("m")
	memberTab, err := realm.Setup(member, gateway.RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	rw := replicate.NewRewriter("m", replicate.Filter{})
	var pos uint64
	day := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	sub := func(id int64) gateway.Submission {
		return gateway.Submission{Gateway: "cipres", PortalUser: fmt.Sprintf("u%d", id%7), Resource: "rush", JobID: id, Submitted: day}
	}
	// hubLocal makes hub-local write k: a new submission when k is even,
	// else the previous job's accounting record and its re-attribution.
	hubLocal := func(k int64) error {
		if k%2 == 1 {
			end := day.Add(4 * time.Hour)
			rec := shredder.JobRecord{LocalJobID: k - 1, User: "gw", Account: "a", Resource: "rush", Queue: "q",
				Nodes: 1, Cores: 4, Submit: day, Start: end.Add(-2 * time.Hour), End: end}
			if _, err := hub.Pipeline.IngestJobRecords([]shredder.JobRecord{rec}); err != nil {
				return err
			}
			k--
		}
		_, _, err := hub.Pipeline.AttributeGatewayJobs([]gateway.Submission{sub(k)})
		return err
	}
	// memberBatch ships member batch k: one Gateways row.
	memberBatch := func(k int64) error {
		s := sub(100000 + k)
		row := []any{s.Gateway, s.PortalUser, s.Resource, s.JobID, s.Submitted, float64(k % 5), float64(k % 3), int64(201703)}
		if err := member.Do(func() error { return memberTab.InsertRow(row) }); err != nil {
			return err
		}
		evs, err := member.Binlog().ReadFrom(pos, 0)
		if err != nil {
			return err
		}
		out, upTo := rw.ProcessBatch(evs)
		pos = upTo
		return hub.ApplyBatch("m", upTo, out)
	}
	local, batches := int64(2), int64(0) // job id 0 is not a valid submission
	for round := 0; round < 8; round++ {
		var rebuilding atomic.Bool
		rebuilding.Store(true)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			defer rebuilding.Store(false)
			for i := 0; i < 8; i++ {
				if _, err := hub.AggregateFederation(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for ; rebuilding.Load(); local++ {
				if err := hubLocal(local); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for ; rebuilding.Load(); batches++ {
				if err := memberBatch(batches); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		served := hubAggSnapshot(t, hub, "Gateways")
		if _, err := hub.AggregateFederation(); err != nil {
			t.Fatal(err)
		}
		if rebuilt := hubAggSnapshot(t, hub, "Gateways"); !slices.Equal(served, rebuilt) {
			t.Fatalf("round %d (%d hub-local writes, %d member batches): the hub serves %d Gateways aggregation rows, a rebuild computes %d",
				round, local, batches, len(served), len(rebuilt))
		}
	}
}

// TestIdentityKnownBeforeFactsAreVisible: the hub observes a batch's
// usernames in the transaction that applies it, so a reader that sees
// a member's job fact on the hub can always resolve its user. A member
// ships many one-job batches, each job with a user the hub has not seen,
// while a reader polls the replicated fact table and resolves every user
// it finds.
func TestIdentityKnownBeforeFactsAreVisible(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("s1"); err != nil {
		t.Fatal(err)
	}
	member := warehouse.Open("s1")
	jobTab, err := realm.Setup(member, jobs.RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 300
	stop := make(chan struct{})
	var unresolved atomic.Value
	var polls atomic.Int64
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			polls.Add(1)
			tab, err := hub.DB.TableIn("fed_s1", jobs.FactTable)
			if err != nil {
				continue // the first batch has not created it yet
			}
			hub.DB.View(func() error {
				tab.Scan(func(r warehouse.Row) bool {
					user := r.String(jobs.ColUser)
					if _, ok := hub.Identity.Resolve(auth.InstanceUser{Instance: "s1", Username: user}); !ok {
						unresolved.CompareAndSwap(nil, user)
						return false
					}
					return true
				})
				return nil
			})
		}
	}()

	rw := replicate.NewRewriter("s1", replicate.Filter{})
	var pos uint64
	t0 := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	for k := int64(1); k <= batches && unresolved.Load() == nil; k++ {
		end := t0.Add(time.Duration(k) * time.Hour)
		row, err := jobs.FactFromRecord(shredder.JobRecord{LocalJobID: k, User: fmt.Sprintf("u%d", k), Account: "a",
			Resource: "r", Queue: "q", Nodes: 1, Cores: 4, Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := member.Do(func() error { return jobTab.Upsert(row) }); err != nil {
			t.Fatal(err)
		}
		evs, err := member.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, upTo := rw.ProcessBatch(evs)
		if err := hub.ApplyBatch("s1", upTo, out); err != nil {
			t.Fatal(err)
		}
		pos = upTo
	}
	close(stop)
	reader.Wait()
	if user := unresolved.Load(); user != nil {
		t.Fatalf("a reader saw a fact of user %q on the hub before Identity could resolve it", user)
	}
	if n := hub.DB.Count("fed_s1", jobs.FactTable); n != batches {
		t.Fatalf("hub holds %d facts, want %d", n, batches)
	}
	t.Logf("%d polls over %d batches", polls.Load(), batches)
}
