package rest

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// chartTotal GETs a chart and returns the aggregate of its only series
// (0 when the result is empty).
func chartTotal(t *testing.T, srv http.Handler, token, path string) float64 {
	t.Helper()
	rec := get(t, srv, token, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	var resp chartResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if len(resp.Series) == 0 {
		return 0
	}
	if len(resp.Series) != 1 {
		t.Fatalf("GET %s: %d series, want 1", path, len(resp.Series))
	}
	return resp.Series[0].Aggregate
}

// TestChartNeverStaleAfterApply is the cache's core guarantee under
// fire: readers hammer /api/chart while replication batches land, and
// once ApplyBatch for job #i has returned, a fresh GET must see all i
// jobs — a cached pre-apply result may never be served. Run under
// -race this also exercises the epoch/coalescing paths concurrently.
func TestChartNeverStaleAfterApply(t *testing.T) {
	cfg := config.InstanceConfig{
		Name: "hub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
	hub, err := core.NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("sat"); err != nil {
		t.Fatal(err)
	}
	hub.Auth.Vault().Create(auth.User{Username: "admin", Role: auth.RoleManager}, "hunter2hunter2")

	// The feeder warehouse stands in for a satellite: inserts go to its
	// binlog, and applyNext ships them to the hub like a tight sender.
	sat := warehouse.Open("qsat")
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	rw := replicate.NewRewriter("sat", replicate.Filter{})
	var pos uint64
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	insertJob := func(i int) {
		// Cores=1, one hour of wall time: exactly 1 CPU hour per job.
		rec := shredder.JobRecord{
			LocalJobID: int64(i), User: "u", Account: "a",
			Resource: "sat-cluster", Queue: "batch", Nodes: 1, Cores: 1,
			Submit: base.Add(time.Duration(i) * time.Minute),
			Start:  base.Add(time.Duration(i) * time.Minute),
			End:    base.Add(time.Duration(i)*time.Minute + time.Hour),
		}
		row, err := jobs.FactFromRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
	applyNext := func() {
		evs, err := sat.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, upTo := rw.ProcessBatch(evs)
		if err := hub.ApplyBatch("sat", upTo, out); err != nil {
			t.Fatal(err)
		}
		pos = upTo
	}

	srv := NewHubServer(hub).Handler()
	token := login(t, srv)
	const path = "/api/chart?realm=Jobs&metric=total_cpu_hours&period=year"
	const steps = 15

	// Background readers race the apply loop. They may observe any
	// committed prefix, so totals must be whole job counts in range —
	// a fractional or out-of-range total means a torn or stale read.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, srv, token, path)
				if rec.Code != http.StatusOK {
					t.Errorf("background GET: status %d: %s", rec.Code, rec.Body)
					return
				}
				var resp chartResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("background GET: %v", err)
					return
				}
				if len(resp.Series) == 0 {
					continue
				}
				total := resp.Series[0].Aggregate
				if total != math.Trunc(total) || total < 0 || total > steps {
					t.Errorf("background GET: total %v, want an integer in [0, %d]", total, steps)
					return
				}
			}
		}()
	}

	for i := 1; i <= steps; i++ {
		insertJob(i)
		applyNext()
		// ApplyBatch returned: the very next read must see all i jobs.
		if total := chartTotal(t, srv, token, path); total != float64(i) {
			t.Fatalf("after applying job %d: chart total %v, want %d (stale cached result served)", i, total, i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestChartCacheHitsAndEpochInvalidation proves repeated identical
// chart queries are served from the cache, and that a local ingest
// invalidates them without any explicit flush.
func TestChartCacheHitsAndEpochInvalidation(t *testing.T) {
	in := testInstance(t)
	s := newServer(in)
	srv := s.Handler()
	token := login(t, srv)
	const path = "/api/chart?realm=Jobs&metric=job_count&period=year"

	if total := chartTotal(t, srv, token, path); total != 20 {
		t.Fatalf("cold total %v, want 20", total)
	}
	if total := chartTotal(t, srv, token, path); total != 20 {
		t.Fatalf("warm total %v, want 20", total)
	}
	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("cache disabled; default config must enable it")
	}
	if st.Hits < 1 {
		t.Fatalf("stats %+v, want at least one hit", st)
	}

	// One more ingested job bumps the warehouse epoch; the cached 20
	// must not survive it.
	end := time.Date(2017, 6, 15, 12, 0, 0, 0, time.UTC)
	_, err := in.Pipeline.IngestJobRecords([]shredder.JobRecord{{
		LocalJobID: 21, User: "u0", Account: "a",
		Resource: "rush", Queue: "batch", Nodes: 1, Cores: 8,
		Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
	}})
	if err != nil {
		t.Fatal(err)
	}
	missesBefore := st.Misses
	if total := chartTotal(t, srv, token, path); total != 21 {
		t.Fatalf("post-ingest total %v, want 21 (epoch invalidation failed)", total)
	}
	if st, _ := s.CacheStats(); st.Misses <= missesBefore {
		t.Fatalf("misses %d -> %d: post-ingest read did not recompute", missesBefore, st.Misses)
	}
}

// TestCrossRealmCacheRetention: cached charts are tagged with their
// own realm's epoch — the epoch of the warehouse schema holding that
// realm's aggregate tables — so a write to one realm
// must not evict another realm's cached charts. Regression: the tag
// used to be the whole-warehouse epoch, and any ingest anywhere
// flushed every realm's charts.
func TestCrossRealmCacheRetention(t *testing.T) {
	in := testInstance(t)
	s := newServer(in)
	srv := s.Handler()
	token := login(t, srv)

	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	_, err := in.Pipeline.IngestCloudEvents([]cloud.Event{
		{VMID: "vm1", Resource: "nimbus", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvStart, Time: t0, Cores: 2, MemoryGB: 4},
		{VMID: "vm1", Resource: "nimbus", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvStop, Time: t0.Add(3 * time.Hour), Cores: 2, MemoryGB: 4},
	}, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	const cloudPath = "/api/chart?realm=Cloud&metric=cloud_core_time&period=year"
	const jobsPath = "/api/chart?realm=Jobs&metric=job_count&period=year"

	// Warm both realms' charts: one 2-core VM for 3 hours = 6 core hours.
	cloudTotal := chartTotal(t, srv, token, cloudPath)
	if cloudTotal != 6 {
		t.Fatalf("cloud core hours %v, want 6", cloudTotal)
	}
	if total := chartTotal(t, srv, token, jobsPath); total != 20 {
		t.Fatalf("job count %v, want 20", total)
	}
	st0, ok := s.CacheStats()
	if !ok {
		t.Fatal("cache disabled; default config must enable it")
	}

	// A Jobs-realm write: only the Jobs chart's epoch tag may move.
	end := time.Date(2017, 6, 15, 12, 0, 0, 0, time.UTC)
	if _, err := in.Pipeline.IngestJobRecords([]shredder.JobRecord{{
		LocalJobID: 21, User: "u0", Account: "a",
		Resource: "rush", Queue: "batch", Nodes: 1, Cores: 8,
		Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
	}}); err != nil {
		t.Fatal(err)
	}

	// The Cloud chart must still come from the cache: same value, no
	// recompute.
	if total := chartTotal(t, srv, token, cloudPath); total != cloudTotal {
		t.Fatalf("cloud core hours after jobs ingest %v, want %v", total, cloudTotal)
	}
	st1, _ := s.CacheStats()
	if st1.Misses != st0.Misses {
		t.Fatalf("cloud chart recomputed after a Jobs ingest: misses %d -> %d", st0.Misses, st1.Misses)
	}
	if st1.Hits <= st0.Hits {
		t.Fatalf("cloud chart not served from cache: hits %d -> %d", st0.Hits, st1.Hits)
	}

	// While the written realm still invalidates as before.
	if total := chartTotal(t, srv, token, jobsPath); total != 21 {
		t.Fatalf("job count after ingest %v, want 21 (epoch invalidation failed)", total)
	}
	if st2, _ := s.CacheStats(); st2.Misses != st1.Misses+1 {
		t.Fatalf("jobs chart misses %d -> %d, want exactly one recompute", st1.Misses, st2.Misses)
	}
}

// TestChartErrorClassification: malformed requests are the client's
// fault (400), a broken warehouse is ours (500).
func TestChartErrorClassification(t *testing.T) {
	in := testInstance(t)
	srv := newServer(in).Handler()
	token := login(t, srv)

	if rec := get(t, srv, token, "/api/chart?realm=Nope&metric=job_count"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown realm: status %d, want 400", rec.Code)
	}
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown metric: status %d, want 400", rec.Code)
	}
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=job_count&group_by=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown dimension: status %d, want 400", rec.Code)
	}

	// Dropping the aggregation schema simulates internal corruption: the
	// request is well-formed, so this must surface as a 500.
	if _, err := in.DB.ApplyAll([]warehouse.Event{{Kind: warehouse.EvDropSchema, Schema: aggregate.AggSchema(jobs.RealmInfo())}}); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=job_count"); rec.Code != http.StatusInternalServerError {
		t.Errorf("missing aggregation tables: status %d, want 500", rec.Code)
	}
}
