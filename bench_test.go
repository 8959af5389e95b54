// Top-level benchmark harness. One benchmark per paper artifact
// (Figure 1-7, Table I) regenerates that artifact through the full
// pipeline, and the EXP-B* benches measure the production concerns of
// a federation deployment: ingest throughput, replication (tight,
// loose, apply), hub aggregation fan-in scaling, aggregated-vs-raw
// query latency, re-aggregation after a config change, binlog
// throughput, and authentication cost. See DESIGN.md for the index.
package xdmodfed

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/report"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

// benchOpts keeps per-iteration experiment workloads modest so the
// artifact benches measure pipeline cost, not generator cost.
var benchOpts = report.Options{Scale: 30, Seed: 2017}

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	e, ok := report.Find(id)
	if !ok {
		b.Fatalf("experiment %s not found", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("%s shape checks failed:\n%s", id, res.Render())
		}
	}
}

// One benchmark per paper table/figure (EXP-F1..F7, EXP-T1).

func BenchmarkFig1TopResources(b *testing.B)        { benchArtifact(b, "fig1") }
func BenchmarkFig2FanInFederation(b *testing.B)     { benchArtifact(b, "fig2") }
func BenchmarkFig3SelectiveRouting(b *testing.B)    { benchArtifact(b, "fig3") }
func BenchmarkTable1AggregationLevels(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkFig4AuthPaths(b *testing.B)           { benchArtifact(b, "fig4") }
func BenchmarkFig5FederatedAuth(b *testing.B)       { benchArtifact(b, "fig5") }
func BenchmarkFig6Storage(b *testing.B)             { benchArtifact(b, "fig6") }
func BenchmarkFig7Cloud(b *testing.B)               { benchArtifact(b, "fig7") }

// ---- Systems benchmarks ----

func benchRecords(n int) []shredder.JobRecord {
	recs := make([]shredder.JobRecord, 0, n)
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.Add(time.Duration(i%8760) * time.Hour)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%32), Account: "a",
			Resource: "bench", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
		})
	}
	return recs
}

func benchInstance(b testing.TB) *core.Instance {
	b.Helper()
	in, err := core.NewInstance(config.InstanceConfig{
		Name: "bench", Version: core.Version,
		Resources: []config.ResourceConfig{{Name: "bench", Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkIngestJobs (EXP-B1): end-to-end job ingest rate including
// incremental aggregation into all four period tables.
func BenchmarkIngestJobs(b *testing.B) {
	in := benchInstance(b)
	recs := benchRecords(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	st, err := in.Pipeline.IngestJobRecords(recs)
	if err != nil {
		b.Fatal(err)
	}
	if st.Ingested != b.N {
		b.Fatalf("ingested %d of %d", st.Ingested, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkShredSlurm: accounting-log parse rate.
func BenchmarkShredSlurm(b *testing.B) {
	var log bytes.Buffer
	if err := shredder.FormatSlurm(&log, benchRecords(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(log.Len() / max(b.N, 1)))
	b.ResetTimer()
	recs, errs := shredder.SlurmParser{}.Parse(bytes.NewReader(log.Bytes()), "bench")
	if len(errs) != 0 || len(recs) != b.N {
		b.Fatalf("parsed %d records, %d errors", len(recs), len(errs))
	}
}

// satelliteWithFacts loads n job facts into a fresh satellite DB.
func satelliteWithFacts(b *testing.B, n int) *warehouse.DB {
	b.Helper()
	db := warehouse.Open("bench-sat")
	if _, err := jobs.Setup(db); err != nil {
		b.Fatal(err)
	}
	for _, rec := range benchRecords(n) {
		row, err := jobs.FactFromRecord(rec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkReplicationApply (EXP-B2): event apply rate on the hub side
// (rewrite + apply, no network).
func BenchmarkReplicationApply(b *testing.B) {
	src := satelliteWithFacts(b, b.N)
	evs, err := src.Binlog().ReadFrom(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	rw := replicate.NewRewriter("bench-sat", replicate.Filter{})
	out, _ := rw.ProcessBatch(evs)
	dst := warehouse.Open("bench-hub")
	b.ReportAllocs()
	b.ResetTimer()
	for _, ev := range out {
		if _, err := dst.ApplyAll([]warehouse.Event{ev}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out))/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkReplicationTight (EXP-B2): full TCP tight replication of
// b.N fact rows, satellite to hub, including handshake and acks.
func BenchmarkReplicationTight(b *testing.B) {
	src := satelliteWithFacts(b, b.N)
	hub := warehouse.Open("bench-hub")
	ps, err := replicate.NewPositionStore(hub)
	if err != nil {
		b.Fatal(err)
	}
	sink := &benchSink{hub: hub, ps: ps}
	recv := &replicate.Receiver{Version: "v", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()

	b.ReportAllocs()
	b.ResetTimer()
	ctx, cancel := context.WithCancel(context.Background())
	sender := &replicate.Sender{Instance: "bench-sat", Version: "v", DB: src,
		Rewriter: replicate.NewRewriter("bench-sat", replicate.Filter{})}
	done := make(chan error, 1)
	go func() { done <- sender.Run(ctx, addr) }()
	target := src.Binlog().Last()
	for ps.Get("bench-sat") < target {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	b.StopTimer()
	if got := hub.Count(replicate.HubSchema("bench-sat"), jobs.FactTable); got != b.N {
		b.Fatalf("replicated %d of %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

type benchSink struct {
	hub *warehouse.DB
	ps  *replicate.PositionStore
}

func (s *benchSink) Resume(instance string) (uint64, error) { return s.ps.Get(instance), nil }
func (s *benchSink) ApplyBatch(instance string, upTo uint64, events []warehouse.Event) error {
	if _, err := s.hub.ApplyAll(events); err != nil {
		return err
	}
	return s.ps.Set(instance, upTo)
}

// BenchmarkReplicationLoose (EXP-B3): dump/ship/load of b.N fact rows.
func BenchmarkReplicationLoose(b *testing.B) {
	src := satelliteWithFacts(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	var dump bytes.Buffer
	if err := src.SnapshotSchemas(&dump, []string{jobs.SchemaName}); err != nil {
		b.Fatal(err)
	}
	hub := warehouse.Open("bench-hub")
	if _, err := replicate.Load(hub, "bench-sat", &dump); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := hub.Count(replicate.HubSchema("bench-sat"), jobs.FactTable); got != b.N {
		b.Fatalf("loaded %d of %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkHubAggregationFanIn (EXP-B4): hub re-aggregation cost as the
// number of federated satellites grows (fixed rows per satellite).
func BenchmarkHubAggregationFanIn(b *testing.B) {
	const rowsPerSat = 2000
	for _, nSats := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("satellites=%d", nSats), func(b *testing.B) {
			hub := warehouse.Open("hub")
			var schemas []string
			for s := 0; s < nSats; s++ {
				schema := replicate.HubSchema(fmt.Sprintf("sat%d", s))
				sch := hub.EnsureSchema(schema)
				if _, err := sch.EnsureTable(jobs.Def()); err != nil {
					b.Fatal(err)
				}
				for _, rec := range benchRecords(rowsPerSat) {
					rec.Resource = schema
					row, _ := jobs.FactFromRecord(rec, nil)
					if err := hub.Insert(schema, jobs.FactTable, row); err != nil {
						b.Fatal(err)
					}
				}
				schemas = append(schemas, schema)
			}
			eng, err := aggregate.New(hub, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
			if err != nil {
				b.Fatal(err)
			}
			info := jobs.RealmInfo()
			if err := eng.Setup(info); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := eng.Reaggregate(info, schemas)
				if err != nil {
					b.Fatal(err)
				}
				if n != nSats*rowsPerSat {
					b.Fatalf("aggregated %d", n)
				}
			}
			b.ReportMetric(float64(nSats*rowsPerSat)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
		})
	}
}

// queryFixture builds an aggregated instance with nFacts jobs.
func queryFixture(b *testing.B, nFacts int) (*aggregate.Engine, *warehouse.DB) {
	b.Helper()
	db := satelliteWithFacts(b, nFacts)
	eng, err := aggregate.New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		b.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		b.Fatal(err)
	}
	return eng, db
}

const queryFacts = 20000

// BenchmarkQueryAggregated (EXP-B5): chart query served from the
// pre-binned aggregation tables — the reason aggregation exists.
func BenchmarkQueryAggregated(b *testing.B) {
	eng, _ := queryFixture(b, queryFacts)
	info := jobs.RealmInfo()
	req := aggregate.Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: aggregate.Month}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(info, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRawScan (EXP-B5 baseline): the same question answered
// by scanning raw facts.
func BenchmarkQueryRawScan(b *testing.B) {
	_, db := queryFixture(b, queryFacts)
	tab, err := db.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type group struct {
			user  string
			month int64
		}
		res := map[group]float64{}
		db.View(func() error {
			tab.Scan(func(r warehouse.Row) bool {
				res[group{r.String(jobs.ColUser), r.Int(jobs.ColMonthKey)}] += r.Float(jobs.ColCPUHours)
				return true
			})
			return nil
		})
		if len(res) == 0 {
			b.Fatal("raw scan found no facts")
		}
	}
}

// BenchmarkReaggregate (EXP-B6): full re-aggregation after an
// aggregation-level config change (paper §II-C3).
func BenchmarkReaggregate(b *testing.B) {
	_, db := queryFixture(b, queryFacts)
	info := jobs.RealmInfo()
	var engs []*aggregate.Engine
	for _, l := range []config.AggregationLevels{config.InstanceAWallTime(), config.InstanceBWallTime()} {
		eng, err := aggregate.New(db, []config.AggregationLevels{l, config.DefaultJobSize()})
		if err != nil {
			b.Fatal(err)
		}
		engs = append(engs, eng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engs[i%2].Reaggregate(info, []string{jobs.SchemaName}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(queryFacts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
}

// BenchmarkBinlogAppend (EXP-B7).
func BenchmarkBinlogAppend(b *testing.B) {
	log := warehouse.NewBinlog()
	ev := warehouse.Event{Kind: warehouse.EvInsert, Schema: "s", Table: "t", Row: []any{int64(1), "x", 2.5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append(ev)
	}
}

// BenchmarkBinlogTail (EXP-B7): batched reads from a populated log.
func BenchmarkBinlogTail(b *testing.B) {
	log := warehouse.NewBinlog()
	ev := warehouse.Event{Kind: warehouse.EvInsert, Schema: "s", Table: "t", Row: []any{int64(1)}}
	for i := 0; i < b.N; i++ {
		log.Append(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pos uint64
	for {
		evs, err := log.ReadFrom(pos, 1024)
		if err != nil {
			b.Fatal(err)
		}
		if len(evs) == 0 {
			break
		}
		pos = evs[len(evs)-1].LSN
	}
	if pos != uint64(b.N) {
		b.Fatalf("tailed to %d of %d", pos, b.N)
	}
}

// BenchmarkAuthLocal (EXP-B8): local password verification (iterated
// salted hash, intentionally slow-ish).
func BenchmarkAuthLocal(b *testing.B) {
	v := auth.NewVault()
	if err := v.Create(auth.User{Username: "u", Role: auth.RoleUser}, "benchmark-pass"); err != nil {
		b.Fatal(err)
	}
	a := auth.NewAuthenticator(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.LoginLocal("u", "benchmark-pass"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuthSSO (EXP-B8): SSO assertion validation + session issue.
func BenchmarkAuthSSO(b *testing.B) {
	idp := auth.NewIdentityProvider("https://idp", "secret")
	idp.Register("u", "pw", "u@x.org", "U", nil)
	a := auth.NewAuthenticator(auth.NewVault())
	if err := a.AddSSOSource(auth.SSOSource{Name: "idp", Issuer: "https://idp", Secret: "secret"}); err != nil {
		b.Fatal(err)
	}
	assertion, err := idp.Authenticate("u", "pw", time.Now())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.LoginSSO(assertion); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead (EXP-B9): instrumentation cost on the ingest
// hot path. The same workload runs with the obs registry gated off and
// on; the reported overhead_% is the relative slowdown from leaving
// instrumentation enabled. Pre-resolved metric handles keep this to
// one atomic op per event — the budget is <5%.
func BenchmarkObsOverhead(b *testing.B) {
	ingest := func(n int) time.Duration {
		in := benchInstance(b)
		recs := benchRecords(n)
		start := time.Now()
		st, err := in.Pipeline.IngestJobRecords(recs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Ingested != n {
			b.Fatalf("ingested %d of %d", st.Ingested, n)
		}
		return time.Since(start)
	}

	defer obs.SetEnabled(true)
	ingest(min(b.N, 5000)) // warm up allocator and code paths untimed

	// Interleave disabled/enabled rounds so allocator and cache drift
	// hits both sides equally.
	var off, on time.Duration
	b.ResetTimer()
	for round := 0; round < 2; round++ {
		obs.SetEnabled(false)
		off += ingest(b.N)
		obs.SetEnabled(true)
		on += ingest(b.N)
	}
	b.StopTimer()

	b.ReportMetric(float64(2*b.N)/on.Seconds(), "jobs/s")
	// Tiny b.N runs are all noise; only report overhead when the
	// workload is large enough to mean something.
	if b.N >= 5000 && off > 0 {
		pct := (on.Seconds() - off.Seconds()) / off.Seconds() * 100
		b.ReportMetric(pct, "overhead_%")
	}
}

// BenchmarkWorkloadGen: trace synthesis rate (generator overhead
// reference for the artifact benches).
func BenchmarkWorkloadGen(b *testing.B) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(workload.XSEDE2017(10, int64(i)))
	}
	_ = n
}
