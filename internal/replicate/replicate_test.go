package replicate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

func satelliteWithJobs(t testing.TB, name string, n int) *warehouse.DB {
	t.Helper()
	db := warehouse.Open(name)
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		rec := shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%5), Account: "acct",
			Resource: name + "-cluster", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: base.Add(time.Duration(i) * time.Hour),
			Start:  base.Add(time.Duration(i)*time.Hour + 10*time.Minute),
			End:    base.Add(time.Duration(i)*time.Hour + 70*time.Minute),
		}
		row, err := jobs.FactFromRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestRewriterRenamesSchema(t *testing.T) {
	rw := NewRewriter("siteA", Filter{})
	ev, ok := rw.Process(warehouse.Event{Kind: warehouse.EvInsert, Schema: "modw", Table: "jobfact", Row: []any{}})
	if !ok || ev.Schema != "fed_siteA" {
		t.Errorf("rename failed: %+v ok=%v", ev, ok)
	}
	if ev.Table != "jobfact" {
		t.Errorf("table changed: %q", ev.Table)
	}
}

func TestRewriterTableFilter(t *testing.T) {
	rw := NewRewriter("a", Filter{IncludeTables: map[string]bool{"jobfact": true}})
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvInsert, Schema: "s", Table: "user_profiles"}); ok {
		t.Error("non-jobs table must be filtered")
	}
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvInsert, Schema: "s", Table: "jobfact"}); !ok {
		t.Error("jobs table must pass")
	}
	def := jobs.Def()
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvCreateTable, Schema: "s", Table: "user_profiles", Def: &def}); ok {
		t.Error("DDL for filtered table must be dropped")
	}
}

func TestRewriterResourceFilter(t *testing.T) {
	def := jobs.Def()
	rw := NewRewriter("a", Filter{ExcludeResources: map[string]bool{"secret-cluster": true}})
	// DDL first so the rewriter learns the column layout.
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvCreateTable, Schema: "modw", Table: "jobfact", Def: &def}); !ok {
		t.Fatal("DDL should pass")
	}
	mkRow := func(resource string) []any {
		row := make([]any, len(def.Columns))
		for i, c := range def.Columns {
			switch c.Name {
			case "resource":
				row[i] = resource
			case "username":
				row[i] = "u"
			default:
				row[i] = nil
			}
		}
		return row
	}
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvInsert, Schema: "modw", Table: "jobfact", Row: mkRow("secret-cluster")}); ok {
		t.Error("excluded resource row must not replicate")
	}
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvInsert, Schema: "modw", Table: "jobfact", Row: mkRow("open-cluster")}); !ok {
		t.Error("other resources must replicate")
	}
	// Deletes are matched via Old values.
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvDelete, Schema: "modw", Table: "jobfact", Old: mkRow("secret-cluster")}); ok {
		t.Error("excluded resource delete must not replicate")
	}
}

func TestRewriterDropSchemaNotPropagated(t *testing.T) {
	rw := NewRewriter("a", Filter{})
	if _, ok := rw.Process(warehouse.Event{Kind: warehouse.EvDropSchema, Schema: "modw"}); ok {
		t.Error("schema drops must not reach the hub (hub doubles as backup)")
	}
}

func TestProcessBatchAdvancesPastFiltered(t *testing.T) {
	rw := NewRewriter("a", Filter{IncludeTables: map[string]bool{"jobfact": true}})
	evs := []warehouse.Event{
		{LSN: 5, Kind: warehouse.EvInsert, Schema: "s", Table: "other"},
		{LSN: 6, Kind: warehouse.EvInsert, Schema: "s", Table: "other"},
	}
	out, upTo := rw.ProcessBatch(evs)
	if len(out) != 0 || upTo != 6 {
		t.Errorf("out=%d upTo=%d, want 0,6", len(out), upTo)
	}
}

func TestFilterValidate(t *testing.T) {
	if err := (Filter{}).Validate(); err != nil {
		t.Error("zero filter must be valid")
	}
	if err := (Filter{IncludeTables: map[string]bool{}}).Validate(); err == nil {
		t.Error("empty include set must be rejected")
	}
}

// pump copies src's binlog events after fromLSN through rw into dst,
// one ApplyAll per rewritten batch, as a tight sender and hub do, and
// returns the new position.
func pump(src, dst *warehouse.DB, rw *Rewriter, fromLSN uint64) (uint64, error) {
	evs, err := src.Binlog().ReadFrom(fromLSN, 0)
	if err != nil {
		return fromLSN, err
	}
	out, upTo := rw.ProcessBatch(evs)
	if _, err := dst.ApplyAll(out); err != nil {
		return fromLSN, err
	}
	return max(upTo, fromLSN), nil
}

func TestPumpReplicatesToHubSchema(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 50)
	hub := warehouse.Open("hub")
	rw := NewRewriter("ccr", Filter{})
	pos, err := pump(sat, hub, rw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pos != sat.Binlog().Last() {
		t.Errorf("pos = %d, want %d", pos, sat.Binlog().Last())
	}
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != 50 {
		t.Errorf("hub rows = %d, want 50", got)
	}
	// Raw data must be byte-identical (hub never alters replicated data).
	satTab, _ := sat.TableIn(jobs.SchemaName, jobs.FactTable)
	hubTab, _ := hub.TableIn(HubSchema("ccr"), jobs.FactTable)
	sat.View(func() error {
		satTab.Scan(func(r warehouse.Row) bool {
			hr, ok := hubTab.GetByKey(r.Get(jobs.ColResource), r.Get(jobs.ColJobID))
			if !ok {
				t.Errorf("row missing on hub: %v", r.Values())
				return false
			}
			if hr.Float(jobs.ColCPUHours) != r.Float(jobs.ColCPUHours) {
				t.Errorf("row altered on hub")
				return false
			}
			return true
		})
		return nil
	})
	// Incremental: new satellite rows pump from the saved position.
	rec := shredder.JobRecord{
		LocalJobID: 1000, User: "x", Account: "a", Resource: "ccr-cluster", Queue: "q",
		Nodes: 1, Cores: 1,
		Submit: time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 6, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 6, 1, 2, 0, 0, 0, time.UTC),
	}
	row, _ := jobs.FactFromRecord(rec, nil)
	sat.Insert(jobs.SchemaName, jobs.FactTable, row)
	if _, err := pump(sat, hub, rw, pos); err != nil {
		t.Fatal(err)
	}
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != 51 {
		t.Errorf("hub rows after increment = %d, want 51", got)
	}
}

func TestPositionStore(t *testing.T) {
	hub := warehouse.Open("hub")
	ps, err := NewPositionStore(hub)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Get("a") != 0 {
		t.Error("unknown instance should be at 0")
	}
	if err := ps.Set("a", 42); err != nil {
		t.Fatal(err)
	}
	if err := ps.Set("b", 7); err != nil {
		t.Fatal(err)
	}
	if err := ps.Set("a", 50); err != nil {
		t.Fatal(err)
	}
	if ps.Get("a") != 50 || ps.Get("b") != 7 {
		t.Errorf("positions: a=%d b=%d", ps.Get("a"), ps.Get("b"))
	}
}

// testSink applies into a hub DB and records positions, mimicking what
// the federation core wires up.
type testSink struct {
	hub *warehouse.DB
	ps  *PositionStore
	mu  sync.Mutex
}

func (s *testSink) Resume(instance string) (uint64, error) {
	return s.ps.Get(instance), nil
}

func (s *testSink) ApplyBatchCtx(_ context.Context, instance string, upTo uint64, events []warehouse.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.hub.ApplyAll(events); err != nil {
		return err
	}
	return s.ps.Set(instance, upTo)
}

func newTestSink(t testing.TB) (*testSink, *warehouse.DB) {
	t.Helper()
	hub := warehouse.Open("hub")
	ps, err := NewPositionStore(hub)
	if err != nil {
		t.Fatal(err)
	}
	return &testSink{hub: hub, ps: ps}, hub
}

func TestTightReplicationOverTCP(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 40)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "8.0.0", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender := &Sender{Instance: "ccr", Version: "8.0.0", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	done := make(chan error, 1)
	go func() { done <- sender.Run(ctx, addr) }()

	waitFor(t, func() bool { return hub.Count(HubSchema("ccr"), jobs.FactTable) == 40 })

	// Live updates flow while connected.
	rec := shredder.JobRecord{
		LocalJobID: 500, User: "x", Account: "a", Resource: "ccr-cluster", Queue: "q",
		Nodes: 1, Cores: 2,
		Submit: time.Date(2017, 7, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 7, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 7, 1, 3, 0, 0, 0, time.UTC),
	}
	row, _ := jobs.FactFromRecord(rec, nil)
	sat.Insert(jobs.SchemaName, jobs.FactTable, row)
	waitFor(t, func() bool { return hub.Count(HubSchema("ccr"), jobs.FactTable) == 41 })

	cancel()
	if err := <-done; err != nil {
		t.Errorf("sender returned %v", err)
	}
	if st := sender.Stats(); st.Position != sat.Binlog().Last() || st.SentEvents == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTightReplicationResume(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 10)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v1", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	run := func() {
		ctx, cancel := context.WithCancel(context.Background())
		sender := &Sender{Instance: "ccr", Version: "v1", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
		done := make(chan error, 1)
		go func() { done <- sender.Run(ctx, addr) }()
		waitFor(t, func() bool { return sink.ps.Get("ccr") == sat.Binlog().Last() })
		cancel()
		<-done
	}
	run()
	countAfterFirst := hub.Count(HubSchema("ccr"), jobs.FactTable)
	if countAfterFirst != 10 {
		t.Fatalf("first session replicated %d rows", countAfterFirst)
	}
	// New rows while disconnected...
	rec := shredder.JobRecord{
		LocalJobID: 900, User: "x", Account: "a", Resource: "ccr-cluster", Queue: "q",
		Nodes: 1, Cores: 2,
		Submit: time.Date(2017, 8, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 8, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 8, 1, 2, 0, 0, 0, time.UTC),
	}
	row, _ := jobs.FactFromRecord(rec, nil)
	sat.Insert(jobs.SchemaName, jobs.FactTable, row)
	// ...arrive after reconnect, without duplicating older rows.
	run()
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != 11 {
		t.Errorf("rows after resume = %d, want 11", got)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 1)
	sink, _ := newTestSink(t)
	recv := &Receiver{Version: "8.0.0", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	sender := &Sender{Instance: "ccr", Version: "7.5.0", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	err = sender.Run(context.Background(), addr)
	if !errors.Is(err, ErrHandshakeRejected) {
		t.Errorf("got %v, want handshake rejection", err)
	}
}

// TestSenderRefusesHubAheadOfBinlog: a hub that resumes past the
// satellite's binlog head holds LSNs the satellite no longer has (a WAL
// that ended below what the hub acknowledged, or a restart numbering
// LSNs from 1 again). The satellite's next writes would reuse those
// LSNs and never reach the hub, so the sender refuses the handshake,
// naming both positions, instead of waiting for LSNs past the hub's.
func TestSenderRefusesHubAheadOfBinlog(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 3)
	head := sat.Binlog().Last()
	sink, _ := newTestSink(t)
	if err := sink.ps.Set("ccr", head+5); err != nil {
		t.Fatal(err)
	}
	recv := &Receiver{Version: "v1", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	sender := &Sender{Instance: "ccr", Version: "v1", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	err = sender.Run(ctx, addr)
	if !errors.Is(err, ErrHandshakeRejected) {
		t.Fatalf("Run against a hub ahead of the binlog: got %v, want a handshake rejection", err)
	}
	for _, lsn := range []uint64{head + 5, head} {
		if !strings.Contains(err.Error(), fmt.Sprintf("LSN %d", lsn)) {
			t.Errorf("rejection %q does not name LSN %d", err, lsn)
		}
	}
}

func TestAuthorizeRejectsUnknownInstance(t *testing.T) {
	sat := satelliteWithJobs(t, "rogue", 1)
	sink, _ := newTestSink(t)
	recv := &Receiver{
		Version: "v1", Sink: sink,
		Authorize: func(instance string) error {
			if instance != "trusted" {
				return fmt.Errorf("instance %q is not a federation member", instance)
			}
			return nil
		},
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	sender := &Sender{Instance: "rogue", Version: "v1", DB: sat, Rewriter: NewRewriter("rogue", Filter{})}
	if err := sender.Run(context.Background(), addr); !errors.Is(err, ErrHandshakeRejected) {
		t.Errorf("got %v, want handshake rejection", err)
	}
}

func TestRunWithRetryStopsOnRejection(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 1)
	sink, _ := newTestSink(t)
	recv := &Receiver{Version: "v2", Sink: sink}
	addr, _ := recv.Listen("127.0.0.1:0")
	defer recv.Close()
	sender := &Sender{Instance: "ccr", Version: "v1", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	errc := make(chan error, 1)
	go func() { errc <- sender.RunWithRetry(context.Background(), addr, time.Millisecond) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrHandshakeRejected) {
			t.Errorf("got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWithRetry kept retrying a permanent rejection")
	}
}

func TestMultiHubFanOut(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 20)
	sinkA, hubA := newTestSink(t)
	sinkB, hubB := newTestSink(t)
	recvA := &Receiver{Version: "v1", Sink: sinkA}
	recvB := &Receiver{Version: "v1", Sink: sinkB}
	addrA, _ := recvA.Listen("127.0.0.1:0")
	addrB, _ := recvB.Listen("127.0.0.1:0")
	defer recvA.Close()
	defer recvB.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, addr := range []string{addrA, addrB} {
		s := &Sender{Instance: "ccr", Version: "v1", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
		go s.Run(ctx, addr)
	}
	waitFor(t, func() bool {
		return hubA.Count(HubSchema("ccr"), jobs.FactTable) == 20 &&
			hubB.Count(HubSchema("ccr"), jobs.FactTable) == 20
	})
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
