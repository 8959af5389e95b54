// End-to-end observability test: a satellite replicates to a hub over
// real TCP, and the whole pipeline is observed through the new /metrics
// and /healthz endpoints — the replication-lag gauge drains to zero,
// the Prometheus exposition is well-formed, and the hub reports the
// member fresh.
package xdmodfed

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/rest"
	"xdmodfed/internal/shredder"
)

var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [0-9eE+.\-]+(e[+-][0-9]+)?$`)

// checkExposition validates Prometheus text-format structure: every
// sample line parses, and every metric family is announced by HELP and
// TYPE lines before its samples.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	announced := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("line %d: malformed comment %q", i+1, line)
				continue
			}
			announced[parts[2]] = true
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line %d: malformed sample %q", i+1, line)
			continue
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && announced[cut] {
				base = cut
				break
			}
		}
		if !announced[base] {
			t.Errorf("line %d: sample %q has no preceding HELP/TYPE", i+1, name)
		}
	}
}

func httpGetBody(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestObservabilityEndToEnd(t *testing.T) {
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "fedhub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Register("siteA"); err != nil {
		t.Fatal(err)
	}

	sat, err := core.NewSatellite(config.InstanceConfig{
		Name: "siteA", Version: core.Version,
		Resources: []config.ResourceConfig{{Name: "clusterA", Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{
			config.InstanceAWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
		Hubs: []config.HubRoute{{HubAddr: addr, Mode: "tight"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ingest jobs, then start replication. The ingest counter is a
	// process-wide total, so assert the delta this test contributes.
	ingestedBefore := obs.Default.CounterVec("xdmodfed_ingest_records_total",
		"Staging records processed by the ingestion pipeline, by realm and outcome.",
		"realm", "outcome").With("Jobs", "ingested").Value()
	var recs []shredder.JobRecord
	base := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 25; i++ {
		end := base.Add(time.Duration(i) * time.Hour)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%3), Account: "acct",
			Resource: "clusterA", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
		})
	}
	if st, err := sat.Pipeline.IngestJobRecords(recs); err != nil || st.Ingested != 25 {
		t.Fatalf("ingest: %v %v", st, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sat.StartFederation(ctx); err != nil {
		t.Fatal(err)
	}
	defer sat.StopFederation()

	satSrv := rest.NewSatelliteServer(sat).Handler()
	hubSrv := rest.NewHubServer(hub).Handler()

	// Poll the satellite's own /metrics until the replication-lag gauge
	// for this hub route returns to zero.
	lagSample := fmt.Sprintf(`xdmodfed_replication_lag_events{instance="siteA",hub="%s"} 0`, addr)
	deadline := time.Now().Add(10 * time.Second)
	var metricsBody string
	for {
		code, body := httpGetBody(t, satSrv, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		metricsBody = body
		if strings.Contains(body, lagSample) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag gauge never reached zero; exposition:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkExposition(t, metricsBody)
	for _, want := range []string{
		"# TYPE xdmodfed_replication_lag_events gauge",
		`xdmodfed_replicate_sent_events_total{instance="siteA"}`,
		"# TYPE xdmodfed_warehouse_txn_total counter",
		fmt.Sprintf(`xdmodfed_ingest_records_total{realm="Jobs",outcome="ingested"} %d`, ingestedBefore+25),
		"xdmodfed_ingest_batch_seconds_bucket",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("satellite /metrics missing %q", want)
		}
	}

	// The hub's exposition shows the applied events and member position.
	code, hubMetrics := httpGetBody(t, hubSrv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("hub /metrics status %d", code)
	}
	checkExposition(t, hubMetrics)
	for _, want := range []string{
		`xdmodfed_hub_applied_events_total{member="siteA"}`,
		`xdmodfed_hub_member_position{member="siteA"}`,
		"xdmodfed_hub_apply_batch_seconds_count",
		`xdmodfed_replicate_recv_batches_total{instance="siteA"}`,
	} {
		if !strings.Contains(hubMetrics, want) {
			t.Errorf("hub /metrics missing %q", want)
		}
	}

	// Hub /healthz reports the member fresh with a recent last event.
	code, healthBody := httpGetBody(t, hubSrv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Members []struct {
			Name     string `json:"name"`
			Position uint64 `json:"position"`
			Fresh    bool   `json:"fresh"`
		} `json:"members"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, healthBody)
	}
	if health.Status != "ok" || health.Role != "hub" {
		t.Errorf("hub healthz = %s", healthBody)
	}
	if len(health.Members) != 1 || health.Members[0].Name != "siteA" ||
		!health.Members[0].Fresh || health.Members[0].Position == 0 {
		t.Errorf("member health = %s", healthBody)
	}

	// Satellite /healthz reports its sender route caught up.
	code, satHealth := httpGetBody(t, satSrv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("satellite /healthz status %d", code)
	}
	var sh struct {
		Role    string `json:"role"`
		Senders []struct {
			Hub        string `json:"hub"`
			LagEvents  uint64 `json:"lag_events"`
			SentEvents int    `json:"sent_events"`
		} `json:"senders"`
	}
	if err := json.Unmarshal([]byte(satHealth), &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Role != "satellite" {
		t.Errorf("satellite role = %q", sh.Role)
	}
	if len(sh.Senders) != 1 || sh.Senders[0].Hub != addr ||
		sh.Senders[0].LagEvents != 0 || sh.Senders[0].SentEvents == 0 {
		t.Errorf("satellite senders = %s", satHealth)
	}
}

// TestFederatedTelemetryEndToEnd exercises the federated telemetry
// over a live hub+satellite pair: the ingest trace propagates across
// the replication link (one TraceID visible from both sides'
// /debug/traces), and a hub chart query lands in /debug/slowlog with
// cache outcome and scan size.
func TestFederatedTelemetryEndToEnd(t *testing.T) {
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "telhub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Register("siteB"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Auth.Vault().Create(auth.User{Username: "teladmin", Role: auth.RoleManager}, "manager-pass1"); err != nil {
		t.Fatal(err)
	}

	sat, err := core.NewSatellite(config.InstanceConfig{
		Name: "siteB", Version: core.Version,
		Resources: []config.ResourceConfig{{Name: "clusterB", Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{
			config.InstanceAWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
		Hubs: []config.HubRoute{{HubAddr: addr, Mode: "tight"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var recs []shredder.JobRecord
	base := time.Date(2017, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		end := base.Add(time.Duration(i) * time.Hour)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%3), Account: "acct",
			Resource: "clusterB", Queue: "batch", Nodes: 1, Cores: 4,
			Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
		})
	}
	if st, err := sat.Pipeline.IngestJobRecords(recs); err != nil || st.Ingested != 30 {
		t.Fatalf("ingest: %v %v", st, err)
	}

	satSrv := rest.NewSatelliteServer(sat).Handler()
	hubSrv := rest.NewHubServer(hub).Handler()

	// The ingest span opens the distributed trace the replication link
	// must join; grab its TraceID from the satellite's /debug/traces.
	code, body := httpGetBody(t, satSrv, "/debug/traces?name=ingest.IngestJobRecords&limit=1")
	if code != http.StatusOK {
		t.Fatalf("satellite /debug/traces status %d", code)
	}
	var satTraces struct {
		Enabled bool       `json:"enabled"`
		Count   int        `json:"count"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &satTraces); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	if !satTraces.Enabled || satTraces.Count != 1 || satTraces.Spans[0].TraceID == "" {
		t.Fatalf("no ingest span retained: %s", body)
	}
	traceID := satTraces.Spans[0].TraceID

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sat.StartFederation(ctx); err != nil {
		t.Fatal(err)
	}
	defer sat.StopFederation()

	// Wait until the satellite reports the hub route fully drained.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, h := httpGetBody(t, satSrv, "/healthz")
		var sh struct {
			Senders []struct {
				LagEvents uint64 `json:"lag_events"`
				Sent      int    `json:"sent_events"`
			} `json:"senders"`
		}
		if err := json.Unmarshal([]byte(h), &sh); err != nil {
			t.Fatal(err)
		}
		if len(sh.Senders) == 1 && sh.Senders[0].LagEvents == 0 && sh.Senders[0].Sent > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never drained: %s", h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Both sides of the wire joined the ingest trace: the satellite's
	// send span and the hub's apply span carry the same TraceID and are
	// retrievable through each process's /debug/traces.
	for handler, wantSpan := range map[string]string{
		"satellite": "replicate.send",
		"hub":       "hub.ApplyBatch",
	} {
		h := satSrv
		if handler == "hub" {
			h = hubSrv
		}
		code, body := httpGetBody(t, h, "/debug/traces?trace_id="+traceID)
		if code != http.StatusOK {
			t.Fatalf("%s /debug/traces status %d", handler, code)
		}
		var doc struct {
			Spans []obs.Span `json:"spans"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sp := range doc.Spans {
			if sp.TraceID != traceID {
				t.Fatalf("%s trace filter leaked span %+v", handler, sp)
			}
			if strings.Contains(sp.Name, wantSpan) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s /debug/traces has no %q span in trace %s:\n%s", handler, wantSpan, traceID, body)
		}
	}

	// A hub chart query lands in the slow-query log with its cache
	// outcome and scan size; the second run is served from cache.
	loginBody := strings.NewReader(`{"username":"teladmin","password":"manager-pass1"}`)
	lreq := httptest.NewRequest("POST", "/api/auth/login", loginBody)
	lrec := httptest.NewRecorder()
	hubSrv.ServeHTTP(lrec, lreq)
	if lrec.Code != http.StatusOK {
		t.Fatalf("login status %d: %s", lrec.Code, lrec.Body)
	}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	const chartPath = "/api/chart?realm=Jobs&metric=total_cpu_hours&group_by=person&period=month"
	for i := 0; i < 2; i++ {
		creq := httptest.NewRequest("GET", chartPath, nil)
		creq.Header.Set("Authorization", "Bearer "+sess.Token)
		crec := httptest.NewRecorder()
		hubSrv.ServeHTTP(crec, creq)
		if crec.Code != http.StatusOK {
			t.Fatalf("chart %d status %d: %s", i, crec.Code, crec.Body)
		}
	}
	code, slowBody := httpGetBody(t, hubSrv, "/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog status %d", code)
	}
	var slow struct {
		Enabled bool             `json:"enabled"`
		Entries []rest.QueryStat `json:"entries"`
	}
	if err := json.Unmarshal([]byte(slowBody), &slow); err != nil {
		t.Fatalf("slowlog not JSON: %v\n%s", err, slowBody)
	}
	if !slow.Enabled || len(slow.Entries) < 2 {
		t.Fatalf("slowlog = %s", slowBody)
	}
	// Newest first: the repeat query hit the cache, the first missed;
	// both report the rows the underlying compute scanned.
	hit, miss := slow.Entries[0], slow.Entries[1]
	if hit.Cache != "hit" || miss.Cache != "miss" {
		t.Errorf("slowlog cache outcomes = %s, %s; want hit, miss", hit.Cache, miss.Cache)
	}
	for _, q := range []rest.QueryStat{hit, miss} {
		if q.Realm != "Jobs" || q.Metric != "total_cpu_hours" || q.RowsScanned <= 0 || q.TraceID == "" {
			t.Errorf("slowlog entry = %+v", q)
		}
	}
}
