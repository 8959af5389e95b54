package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/warehouse"
)

func TestRunLooseFederationShipsDumps(t *testing.T) {
	cfg := satCfg("loose-site", []string{"r"}, "")
	cfg.Hubs = []config.HubRoute{{HubAddr: "hub", Mode: "loose"}}
	sat, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 5, time.Hour, 1)

	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("loose-site")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		n, err := sat.RunLooseFederation(ctx, time.Millisecond, func(route config.HubRoute, dump io.Reader) error {
			if route.HubAddr != "hub" {
				t.Errorf("route = %+v", route)
			}
			var buf bytes.Buffer
			if _, err := io.Copy(&buf, dump); err != nil {
				return err
			}
			if err := hub.LoadLooseDump("loose-site", &buf); err != nil {
				return err
			}
			cancel()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n < 1 {
			t.Fatalf("shipped %d", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no shipment")
	}
	if got := hub.DB.Count("fed_loose-site", jobs.FactTable); got != 5 {
		t.Errorf("hub rows = %d", got)
	}
}

// snapshotOf returns a snapshot of the named schemas of db: a loose
// dump taken without a route's rewriter, so every table of the schemas
// is in it under its own schema name.
func snapshotOf(t *testing.T, db *warehouse.DB, schemas ...string) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	lsn, evs := db.SnapshotEvents(schemas)
	if err := warehouse.WriteSnapshot(&b, db.Name(), lsn, evs); err != nil {
		t.Fatal(err)
	}
	return &b
}

// lockedBuffer is a log sink that goroutines may write concurrently.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// captureLogs sends every component's log lines to the returned buffer
// for the rest of the test.
func captureLogs(t *testing.T) *lockedBuffer {
	buf := &lockedBuffer{}
	obs.SetLogOutput(buf, false)
	t.Cleanup(func() { obs.SetLogOutput(os.Stderr, false) })
	return buf
}

func TestRunLooseFederationShipErrorsAreRetried(t *testing.T) {
	cfg := satCfg("s", []string{"r"}, "")
	cfg.Hubs = []config.HubRoute{{HubAddr: "hub", Mode: "loose"}}
	sat, _ := NewSatellite(cfg)
	ingestJobs(t, sat, "r", 1, time.Hour, 1)
	logs := captureLogs(t)

	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	done := make(chan int, 1)
	go func() {
		n, _ := sat.RunLooseFederation(ctx, time.Millisecond, func(_ config.HubRoute, _ io.Reader) error {
			attempts++
			if attempts < 3 {
				return fmt.Errorf("transient ship failure")
			}
			cancel()
			return nil
		})
		done <- n
	}()
	select {
	case n := <-done:
		if n != 1 || attempts < 3 {
			t.Errorf("shipped=%d attempts=%d", n, attempts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop stalled")
	}
	// Each failed shipment is logged with its route and error.
	var failures int
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "level=WARN") && strings.Contains(line, "loose dump shipment failed") &&
			strings.Contains(line, "hub=hub") && strings.Contains(line, "transient ship failure") {
			failures++
		}
	}
	if failures != 2 {
		t.Errorf("%d WARN lines for the 2 failed shipments:\n%s", failures, logs)
	}
}

// TestStartFederationWarnsOnLooseRoutes: the daemon ships nothing for a
// loose route, and says so once per route instead of dropping it.
func TestStartFederationWarnsOnLooseRoutes(t *testing.T) {
	cfg := satCfg("s", []string{"r"}, "")
	cfg.Hubs = []config.HubRoute{{HubAddr: "hub-a:7441", Mode: "loose"}, {HubAddr: "hub-b:7441", Mode: "loose"}}
	sat, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := captureLogs(t)
	if err := sat.StartFederation(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sat.StopFederation()
	if n := len(sat.SenderStats()); n != 0 {
		t.Errorf("%d senders started for loose routes", n)
	}
	for _, hub := range []string{"hub-a:7441", "hub-b:7441"} {
		var warned int
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, "level=WARN") && strings.Contains(line, "hub="+hub) &&
				strings.Contains(line, "does not ship loose dumps") &&
				strings.Contains(line, "-loose or POST /api/federation/loose/{instance}") {
				warned++
			}
		}
		if warned != 1 {
			t.Errorf("route to %s: %d WARN lines, want 1:\n%s", hub, warned, logs)
		}
	}
}

func TestRunLooseFederationValidation(t *testing.T) {
	sat, _ := NewSatellite(satCfg("s", []string{"r"}, ""))
	ctx := context.Background()
	if _, err := sat.RunLooseFederation(ctx, 0, nil); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := sat.RunLooseFederation(ctx, time.Second, nil); err == nil {
		t.Error("no loose routes accepted")
	}
}

func TestSenderStatsExposed(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := hub.Listen("127.0.0.1:0")
	defer hub.Close()
	hub.Register("s")
	sat, _ := NewSatellite(satCfg("s", []string{"r"}, addr))
	ingestJobs(t, sat, "r", 3, time.Hour, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sat.StartFederation(ctx)
	defer sat.StopFederation()
	waitFor(t, func() bool { return hub.DB.Count("fed_s", jobs.FactTable) == 3 })
	// The hub commits the batch before its ack reaches the sender, so
	// the stats lag the hub's row count by one network round trip.
	waitFor(t, func() bool {
		stats := sat.SenderStats()
		return len(stats) == 1 && stats[0].SentEvents > 0 && stats[0].Position > 0
	})
	sat.StopFederation()
	if len(sat.SenderStats()) != 0 {
		t.Error("stats should clear after stop")
	}
}

func TestTrimReplicatedLog(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := hub.Listen("127.0.0.1:0")
	defer hub.Close()
	hub.Register("s")
	sat, _ := NewSatellite(satCfg("s", []string{"r"}, addr))
	// No senders yet: trimming must be a no-op.
	if got := sat.TrimReplicatedLog(); got != 0 {
		t.Errorf("trim without senders = %d", got)
	}
	ingestJobs(t, sat, "r", 10, time.Hour, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sat.StartFederation(ctx)
	defer sat.StopFederation()
	waitFor(t, func() bool { return sat.SenderStats()[0].Position == sat.DB.Binlog().Last() })

	var dumpBefore bytes.Buffer
	if err := sat.DumpForRoute(sat.Config.Hubs[0], &dumpBefore); err != nil {
		t.Fatal(err)
	}
	before := sat.DB.Binlog().Len()
	trimmed := sat.TrimReplicatedLog()
	if trimmed != sat.DB.Binlog().Last() {
		t.Errorf("trimmed to %d, want %d", trimmed, sat.DB.Binlog().Last())
	}
	if after := sat.DB.Binlog().Len(); after >= before || after != 0 {
		t.Errorf("log len %d -> %d", before, after)
	}
	// A dump reads table state, not the binlog: the trim does not stop
	// it, and loaded on a hub it gives the fed_ tables a dump taken
	// before the trim gives, which are the ones tight replication filled.
	var dumpAfter bytes.Buffer
	if err := sat.DumpForRoute(sat.Config.Hubs[0], &dumpAfter); err != nil {
		t.Fatalf("dump after the trim: %v", err)
	}
	held := fedContents(hub.DB)
	if n := len(held["fed_s."+jobs.FactTable]); n != 10 {
		t.Fatalf("the hub holds %d replicated jobs, want 10", n)
	}
	tight := fmt.Sprint(held)
	for name, dump := range map[string]*bytes.Buffer{"before": &dumpBefore, "after": &dumpAfter} {
		loose, err := NewHub(hubCfg("loose-hub"))
		if err != nil {
			t.Fatal(err)
		}
		if err := loose.Register("s"); err != nil {
			t.Fatal(err)
		}
		if err := loose.LoadLooseDump("s", dump); err != nil {
			t.Fatalf("loading the dump taken %s the trim: %v", name, err)
		}
		if got := fmt.Sprint(fedContents(loose.DB)); got != tight {
			t.Errorf("the dump taken %s the trim loads\n %s\nwhere tight replication holds\n %s", name, got, tight)
		}
	}
	// New events still replicate after the trim.
	ingestJobs(t, sat, "r", 2, time.Hour, 100)
	waitFor(t, func() bool { return hub.DB.Count("fed_s", "jobfact") == 12 })
}

// TestLooseLoadFailingPartwayMarksLoadedRealmsDirty: a loose dump whose
// Jobs fact table is replaced before a later table fails to load leaves
// the new raw rows in place, so the Jobs realm must be dirty — the next
// read rebuilds it instead of serving aggregates of the previous dump
// (regression: the failed load dropped the list of replaced tables and
// the hub reported itself clean over stale charts).
func TestLooseLoadFailingPartwayMarksLoadedRealmsDirty(t *testing.T) {
	sat, err := NewSatellite(satCfg("L", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("L"); err != nil {
		t.Fatal(err)
	}
	dump := func(schemas ...string) *bytes.Buffer { return snapshotOf(t, sat.DB, schemas...) }

	ingestJobs(t, sat, "r", 5, time.Hour, 1)
	if err := hub.LoadLooseDump("L", dump(jobs.SchemaName)); err != nil {
		t.Fatal(err)
	}
	if err := hub.EnsureAggregated(); err != nil {
		t.Fatal(err)
	}

	// The next dump carries more jobs and a federated table that comes
	// after the fact table (its schema sorts after the Jobs schema) and
	// clashes with the hub's table of that name.
	ingestJobs(t, sat, "r", 7, 2*time.Hour, 1000)
	const clash = gateway.FactTable
	if _, err := hub.DB.EnsureSchema(replicate.HubSchema("L")).EnsureTable(warehouse.TableDef{
		Name: clash, Columns: []warehouse.Column{{Name: "a", Type: warehouse.TypeInt}}}); err != nil {
		t.Fatal(err)
	}
	if jobs.SchemaName >= gateway.SchemaName {
		t.Fatalf("schema %q must sort after the Jobs schema %q", gateway.SchemaName, jobs.SchemaName)
	}
	if err := hub.LoadLooseDump("L", dump(jobs.SchemaName, gateway.SchemaName)); err == nil || !strings.Contains(err.Error(), clash) {
		t.Fatalf("LoadLooseDump error = %v, want the %s clash", err, clash)
	}
	if got := hub.DB.Count(replicate.HubSchema("L"), jobs.FactTable); got != 12 {
		t.Fatalf("hub holds %d Jobs facts after the partial load, want 12", got)
	}
	if st := hub.Status(); !st.Dirty || len(st.DirtyRealms) != 1 || st.DirtyRealms[0] != jobs.RealmInfo().Name {
		t.Fatalf("dirty realms after a partial loose load = %v, want [Jobs]", st.DirtyRealms)
	}

	served := chartBits(t, hub) // Hub.Query runs EnsureAggregated first
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	rebuilt := chartBits(t, hub)
	if len(rebuilt) == 0 {
		t.Fatal("rebuilt Jobs charts are empty")
	}
	if strings.Join(served, "\n") != strings.Join(rebuilt, "\n") {
		t.Fatalf("charts served after the partial load differ from a rebuild:\n served:  %v\n rebuilt: %v", served, rebuilt)
	}
}

// TestMalformedDumpTouchesNothing: a loose dump or a backup that does
// not read — cut short, or with a LOAD whose payload its own
// CREATE_TABLE refuses — is refused before anything applies. The hub
// keeps its tables, positions, member records and clean realms; a
// satellite keeps its tables and its binlog.
func TestMalformedDumpTouchesNothing(t *testing.T) {
	src, err := NewSatellite(satCfg("L", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, src, "r", 6, time.Hour, 1)
	good := snapshotOf(t, src.DB, jobs.SchemaName).Bytes()
	lsn, evs := src.DB.SnapshotEvents([]string{jobs.SchemaName})
	for _, ev := range evs {
		if cd := ev.Cols; ev.Table == jobs.FactTable && cd != nil {
			cd.Names, cd.Cols = cd.Names[:len(cd.Names)-1], cd.Cols[:len(cd.Cols)-1]
		}
	}
	var refused bytes.Buffer
	if err := warehouse.WriteSnapshot(&refused, "L", lsn, evs); err != nil {
		t.Fatal(err)
	}
	malformed := map[string][]byte{
		"cut short":                good[:len(good)-7],
		"a load its table refuses": refused.Bytes(),
	}

	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"T", "L"} {
		if err := hub.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	tight, err := NewSatellite(satCfg("T", []string{"t"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, tight, "t", 4, time.Hour, 1)
	rw, err := tight.rewriterFor(config.HubRoute{HubAddr: "hub", Mode: "tight"})
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := tight.DB.Binlog().ReadFrom(0, 0)
	out, upTo := rw.ProcessBatch(batch)
	if err := hub.ApplyBatch("T", upTo, out); err != nil {
		t.Fatal(err)
	}
	if err := hub.LoadLooseDump("L", bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if err := hub.EnsureAggregated(); err != nil {
		t.Fatal(err)
	}
	hubState := func() string {
		st := hub.Status()
		return fmt.Sprintf("tables %v\npositions T=%d L=%d\nmembers %+v\ndirty %v",
			tableContents(hub.DB), hub.Positions.Get("T"), hub.Positions.Get("L"), st.Members, st.DirtyRealms)
	}

	sat, err := NewSatellite(satCfg("L", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 3, time.Hour, 100)
	satState := func() string {
		return fmt.Sprintf("tables %v\nbinlog at %d", tableContents(sat.DB), sat.DB.Binlog().Last())
	}

	for name, b := range malformed {
		before := hubState()
		if err := hub.LoadLooseDump("L", bytes.NewReader(b)); err == nil {
			t.Errorf("%s: the hub loaded the dump", name)
		}
		if after := hubState(); after != before {
			t.Errorf("%s: the refused dump changed the hub\nbefore %s\nafter  %s", name, before, after)
		}
		before = satState()
		if err := sat.RestoreFromHubBackup(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: the satellite restored the backup", name)
		}
		if after := satState(); after != before {
			t.Errorf("%s: the refused backup changed the satellite\nbefore %s\nafter  %s", name, before, after)
		}
	}
}

// TestFailedLooseLoadsCountFailures: a loose load that fails to apply
// counts in the member's Failures and LastError as a failed batch does,
// and the member's next well-formed dump still applies and clears both.
func TestFailedLooseLoadsCountFailures(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("L"); err != nil {
		t.Fatal(err)
	}
	// A federated table, so the load reaches it, of another layout on
	// each side.
	const clash = gateway.FactTable
	sat := warehouse.Open("L")
	if _, err := sat.EnsureSchema(gateway.SchemaName).EnsureTable(warehouse.TableDef{
		Name: clash, Columns: []warehouse.Column{{Name: "b", Type: warehouse.TypeString}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.DB.EnsureSchema(replicate.HubSchema("L")).EnsureTable(warehouse.TableDef{
		Name: clash, Columns: []warehouse.Column{{Name: "a", Type: warehouse.TypeInt}}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := hub.LoadLooseDump("L", snapshotOf(t, sat, gateway.SchemaName)); err == nil || !strings.Contains(err.Error(), clash) {
			t.Fatalf("load %d: error = %v, want the clash", i, err)
		}
		if m := hub.Members()[0]; m.Failures != i || !strings.Contains(m.LastError, clash) {
			t.Fatalf("after %d failed loads: failures=%d last error %q", i, m.Failures, m.LastError)
		}
	}
	empty := warehouse.Open("L")
	empty.EnsureSchema(jobs.SchemaName)
	if err := hub.LoadLooseDump("L", snapshotOf(t, empty, jobs.SchemaName)); err != nil {
		t.Fatalf("a good dump after failed ones: %v", err)
	}
	if m := hub.Members()[0]; m.Failures != 0 || m.LastError != "" || m.Mode != "loose" {
		t.Fatalf("after a good dump: failures=%d last error %q mode %q", m.Failures, m.LastError, m.Mode)
	}
}

// TestLooseDumpLandsOnlyFederatedTables: a member's whole warehouse
// loaded as a loose dump (its -db snapshot) lands only the tables that
// federate — each realm's fact table — in fed_<instance>: not the
// member's aggregation tables, and not the local Allocations realm,
// whose charges the hub would otherwise count as its own.
func TestLooseDumpLandsOnlyFederatedTables(t *testing.T) {
	sat, err := NewSatellite(satCfg("s1", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 10, time.Hour, 1)
	if err := alloc.AddAllocation(sat.DB, alloc.Allocation{Project: "acct", Award: 1e6,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sat.Pipeline.ChargeAllocations(); err != nil {
		t.Fatal(err)
	}
	if n := sat.DB.Count(alloc.SchemaName, alloc.ChargeTable); n != 10 {
		t.Fatalf("satellite charged %d jobs, want 10", n)
	}
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("s1"); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := sat.DB.Snapshot(&dump); err != nil {
		t.Fatal(err)
	}
	if err := hub.LoadLooseDump("s1", &dump); err != nil {
		t.Fatal(err)
	}
	federated := map[string]bool{}
	for _, info := range realms {
		for _, tab := range info.Federated() {
			federated[tab] = true
		}
	}
	var stray []string
	for _, tab := range hub.DB.Schema(replicate.HubSchema("s1")).Tables() {
		if !federated[tab] {
			stray = append(stray, tab)
		}
	}
	if len(stray) > 0 {
		t.Errorf("fed_s1 holds %d tables that do not federate: %v", len(stray), stray)
	}
	if got := hub.DB.Count(replicate.HubSchema("s1"), jobs.FactTable); got != 10 {
		t.Errorf("fed_s1 holds %d job facts, want 10", got)
	}
	series, err := hub.Query(alloc.RealmInfo().Name, aggregate.Request{MetricID: alloc.MetricChargeJob, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Value != 0 {
				t.Errorf("hub charts the member's allocation charges: %s %d = %v", s.Group, p.PeriodKey, p.Value)
			}
		}
	}
}
