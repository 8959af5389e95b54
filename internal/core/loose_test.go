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

	"xdmodfed/internal/config"
	"xdmodfed/internal/obs"
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

	before := sat.DB.Binlog().Len()
	trimmed := sat.TrimReplicatedLog()
	if trimmed != sat.DB.Binlog().Last() {
		t.Errorf("trimmed to %d, want %d", trimmed, sat.DB.Binlog().Last())
	}
	if after := sat.DB.Binlog().Len(); after >= before || after != 0 {
		t.Errorf("log len %d -> %d", before, after)
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
	dump := func() *bytes.Buffer {
		var b bytes.Buffer
		if err := sat.DB.SnapshotSchemas(&b, []string{jobs.SchemaName}); err != nil {
			t.Fatal(err)
		}
		return &b
	}

	ingestJobs(t, sat, "r", 5, time.Hour, 1)
	if err := hub.LoadLooseDump("L", dump()); err != nil {
		t.Fatal(err)
	}
	if err := hub.EnsureAggregated(); err != nil {
		t.Fatal(err)
	}

	// The next dump carries more jobs and a table that sorts after the
	// fact table and clashes with the hub's table of that name.
	ingestJobs(t, sat, "r", 7, 2*time.Hour, 1000)
	const clash = "zz_clash"
	if _, err := sat.DB.EnsureSchema(jobs.SchemaName).EnsureTable(warehouse.TableDef{
		Name: clash, Columns: []warehouse.Column{{Name: "b", Type: warehouse.TypeString}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.DB.EnsureSchema(replicate.HubSchema("L")).EnsureTable(warehouse.TableDef{
		Name: clash, Columns: []warehouse.Column{{Name: "a", Type: warehouse.TypeInt}}}); err != nil {
		t.Fatal(err)
	}
	if jobs.FactTable >= clash {
		t.Fatalf("%q must sort after the fact table %q", clash, jobs.FactTable)
	}
	if err := hub.LoadLooseDump("L", dump()); err == nil || !strings.Contains(err.Error(), clash) {
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
