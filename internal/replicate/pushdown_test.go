package replicate

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// pushTestSink extends testSink with the PushdownSink surface,
// recording negotiations and applied deltas. negotiate defaults to
// "grant everything" when nil.
type pushTestSink struct {
	*testSink
	negotiate func(req PushdownRequest) error

	pmu        sync.Mutex
	negotiated []PushdownRequest
	deltas     []aggregate.Delta
	covered    uint64
}

func (s *pushTestSink) NegotiatePushdown(instance string, req PushdownRequest) error {
	s.pmu.Lock()
	s.negotiated = append(s.negotiated, req)
	s.pmu.Unlock()
	if s.negotiate != nil {
		return s.negotiate(req)
	}
	return nil
}

func (s *pushTestSink) ApplyDeltas(ctx context.Context, instance string, upTo uint64, deltas []aggregate.Delta) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.deltas = append(s.deltas, deltas...)
	for _, d := range deltas {
		if d.CoveredLSN > s.covered {
			s.covered = d.CoveredLSN
		}
	}
	return nil
}

func (s *pushTestSink) coveredLSN() uint64 {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.covered
}

func (s *pushTestSink) appliedDeltas() []aggregate.Delta {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return append([]aggregate.Delta(nil), s.deltas...)
}

// pushdownSender builds a sender whose jobs realm is offered for
// pushdown with a fast flush interval.
func pushdownSender(t testing.TB, sat *warehouse.DB, version string) *Sender {
	t.Helper()
	eng, err := aggregate.New(sat, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	pf, err := NewPushdownFolder(eng, []realm.Info{info}, Filter{}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &Sender{
		Instance: "ccr", Version: version, DB: sat,
		Rewriter: NewRewriter("ccr", Filter{}),
		Pushdown: pf,
	}
}

// TestPushdownFallsBackWithPlainSink: a hub whose sink does not speak
// pushdown must leave the connection in facts mode — the satellite
// warns and replicates raw facts, bit-identically to before.
func TestPushdownFallsBackWithPlainSink(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 25)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v1", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender := pushdownSender(t, sat, "v1")
	done := make(chan error, 1)
	go func() { done <- sender.Run(ctx, addr) }()

	waitFor(t, func() bool { return hub.Count(HubSchema("ccr"), jobs.FactTable) == 25 })
	if st := sender.Stats(); st.Mode != "facts" || st.Deltas != 0 {
		t.Errorf("stats = %+v, want facts mode with no deltas", st)
	}
	cancel()
	<-done
}

// TestPushdownSoftDecline: a wrapped ErrPushdownDeclined from
// negotiation keeps the connection alive in facts mode.
func TestPushdownSoftDecline(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 10)
	base, hub := newTestSink(t)
	sink := &pushTestSink{testSink: base, negotiate: func(req PushdownRequest) error {
		return fmt.Errorf("%w: aggregation levels differ", ErrPushdownDeclined)
	}}
	recv := &Receiver{Version: "v1", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender := pushdownSender(t, sat, "v1")
	done := make(chan error, 1)
	go func() { done <- sender.Run(ctx, addr) }()

	waitFor(t, func() bool { return hub.Count(HubSchema("ccr"), jobs.FactTable) == 10 })
	if st := sender.Stats(); st.Mode != "facts" {
		t.Errorf("mode = %q, want facts after soft decline", st.Mode)
	}
	if got := sink.appliedDeltas(); len(got) != 0 {
		t.Errorf("declined connection applied %d deltas", len(got))
	}
	cancel()
	<-done
}

// TestPushdownHardReject: any other negotiation error is a handshake
// rejection (e.g. the mode-switch guard demanding a resync) — the
// sender must stop, not silently fall back.
func TestPushdownHardReject(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 5)
	base, _ := newTestSink(t)
	sink := &pushTestSink{testSink: base, negotiate: func(req PushdownRequest) error {
		return fmt.Errorf("member has pushdown residue; requires a resync")
	}}
	recv := &Receiver{Version: "v1", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	sender := pushdownSender(t, sat, "v1")
	if err := sender.Run(context.Background(), addr); !errors.Is(err, ErrHandshakeRejected) {
		t.Errorf("got %v, want handshake rejection", err)
	}
}

// TestPushdownEndToEnd: over a real TCP pair, a pushdown-granted
// connection ships a reset delta covering the binlog head instead of
// raw fact rows, ships incremental deltas as new facts commit, and
// re-sends a fresh reset after reconnecting.
func TestPushdownEndToEnd(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 30)
	base, hub := newTestSink(t)
	sink := &pushTestSink{testSink: base}
	recv := &Receiver{Version: "v1", Sink: sink, HeartbeatInterval: 50 * time.Millisecond}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	sender := pushdownSender(t, sat, "v1")
	done := make(chan error, 1)
	go func() { done <- sender.Run(ctx, addr) }()

	// The reset delta must converge to the binlog head and the fact
	// position must advance past the folded-away events.
	waitFor(t, func() bool {
		return sink.coveredLSN() == sat.Binlog().Last() && sink.ps.Get("ccr") == sat.Binlog().Last()
	})
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != 0 {
		t.Fatalf("pushdown connection replicated %d raw fact rows", got)
	}
	first := sink.appliedDeltas()
	if len(first) == 0 || !first[0].Reset || first[0].Realm != "Jobs" {
		t.Fatalf("first delta = %+v, want a Jobs reset", first)
	}
	if req := sink.negotiated[0]; !req.Enabled || len(req.Realms) != 1 || req.Realms[0] != "Jobs" || req.LevelsDigest == "" {
		t.Fatalf("negotiated request = %+v", req)
	}

	// New facts fold into an incremental delta behind the acked batch.
	rec := shredder.JobRecord{
		LocalJobID: 900, User: "x", Account: "a", Resource: "ccr-cluster", Queue: "q",
		Nodes: 1, Cores: 2,
		Submit: time.Date(2017, 8, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 8, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 8, 1, 2, 0, 0, 0, time.UTC),
	}
	row, _ := jobs.FactFromRecord(rec, nil)
	if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.coveredLSN() == sat.Binlog().Last() })
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != 0 {
		t.Fatalf("live fact leaked as a raw row: %d", got)
	}
	// The sink records a delta before the sender reads its ack, and the
	// sender counts it only after: wait for the stats to catch up.
	waitFor(t, func() bool {
		st := sender.Stats()
		return st.Mode == "pushdown" && st.Deltas >= 2 && st.DeltaCovered == sat.Binlog().Last()
	})

	// Reconnect: the sender must start over with a fresh reset delta
	// (reset-on-connect makes kill/restart trivially convergent).
	cancel()
	<-done
	nBefore := len(sink.appliedDeltas())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan error, 1)
	go func() { done2 <- sender.Run(ctx2, addr) }()
	waitFor(t, func() bool { return len(sink.appliedDeltas()) > nBefore })
	all := sink.appliedDeltas()
	if d := all[nBefore]; !d.Reset || d.CoveredLSN != sat.Binlog().Last() {
		t.Errorf("post-reconnect delta = Reset %v CoveredLSN %d, want a reset covering %d",
			d.Reset, d.CoveredLSN, sat.Binlog().Last())
	}
	cancel2()
	<-done2
}

// TestReceiverRejectsOversizeDeltaFrame: the delta batch frame rides
// the same length-limited decoder as fact batches, so a runaway or
// hostile delta payload must close the connection without being
// applied (no unbounded buffering, satellite task: gob-decode guard).
func TestReceiverRejectsOversizeDeltaFrame(t *testing.T) {
	base, _ := newTestSink(t)
	sink := &pushTestSink{testSink: base}
	recv := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: 50 * time.Millisecond, MaxFrameBytes: 8192}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(hello{Instance: "ccr", Version: "v", Wire: wireFormat, Pushdown: true, PushdownRealms: []string{"Jobs"}, LevelsDigest: "d"}); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(conn)
	var ha helloAck
	if err := dec.Decode(&ha); err != nil || !ha.OK || !ha.PushdownOK {
		t.Fatalf("handshake: %v %+v", err, ha)
	}

	// ~1 MiB of bins against an 8 KiB frame budget.
	bins := make([]aggregate.Bin, 4096)
	for i := range bins {
		bins[i] = aggregate.Bin{PeriodKey: int64(i), Dims: []string{"rrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrr"},
			N: 1, State: []float64{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}}
	}
	huge := batch{UpTo: 1, Deltas: []aggregate.Delta{{Realm: "Jobs", Reset: true, CoveredLSN: 1,
		Periods: []aggregate.PeriodBins{{Period: "day", Bins: bins}}}}}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := enc.Encode(huge); err == nil {
		var a ack
		for {
			if err := dec.Decode(&a); err != nil {
				break
			}
			if !a.HB {
				t.Fatalf("hub acked an oversize delta frame: %+v", a)
			}
		}
	}
	if got := sink.appliedDeltas(); len(got) != 0 {
		t.Fatalf("oversize delta frame was applied: %d deltas", len(got))
	}
}

// septemberFact is job i of a run of jobs later than satelliteWithJobs'.
func septemberFact(t testing.TB, i int) map[string]any {
	t.Helper()
	at := time.Date(2017, 9, 1+i%20, i%24, 0, 0, 0, time.UTC)
	row, err := jobs.FactFromRecord(shredder.JobRecord{
		LocalJobID: int64(1000 + i), User: "x", Account: "a", Resource: "ccr-cluster", Queue: "q",
		Nodes: 1, Cores: 2, Submit: at, Start: at.Add(time.Minute), End: at.Add(time.Hour),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestPushdownDueInWaitsOutABacklog pins the pacing rule on fixed
// times: dirty bins are due one interval after the previous flush, one
// interval later still while the sender is behind the binlog; a reset
// is due at once either way and clean bins never.
func TestPushdownDueInWaitsOutABacklog(t *testing.T) {
	const interval = time.Second
	sat := satelliteWithJobs(t, "ccr", 3)
	eng, err := aggregate.New(sat, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	pf, err := NewPushdownFolder(eng, []realm.Info{info}, Filter{}, interval)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	due := func(after time.Duration, behind bool, want time.Duration) {
		t.Helper()
		if got := pf.DueIn(t0.Add(after), behind); got != want {
			t.Errorf("DueIn(%v after the flush, behind=%v) = %v, want %v", after, behind, got, want)
		}
	}

	pf.PrepareConnect()
	due(0, false, 0)
	due(0, true, 0)
	if _, _, err := pf.Flush(t0); err != nil {
		t.Fatal(err)
	}
	due(5*interval, false, notDue)
	due(5*interval, true, notDue)

	head := sat.Binlog().Last()
	if err := sat.Insert(jobs.SchemaName, jobs.FactTable, septemberFact(t, 0)); err != nil {
		t.Fatal(err)
	}
	evs, err := sat.Binlog().ReadFrom(head, 0)
	if err != nil || len(evs) != 1 {
		t.Fatalf("read %d events past %d: %v", len(evs), head, err)
	}
	if _, err := pf.Consume(evs, evs[0].LSN); err != nil {
		t.Fatal(err)
	}
	due(interval/4, false, 3*interval/4)
	due(interval, false, 0)
	due(interval, true, interval)
	due(2*interval, true, 0)
	due(3*interval, true, -interval)
}

// heldSink is a pushTestSink whose next ApplyBatchCtx, once armed, waits
// for release: the sender sits in its stop-and-wait while the test
// grows a backlog behind it.
type heldSink struct {
	*pushTestSink
	armed            atomic.Bool
	entered, release chan struct{}
}

func (s *heldSink) ApplyBatchCtx(ctx context.Context, instance string, upTo uint64, events []warehouse.Event) error {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return s.pushTestSink.ApplyBatchCtx(ctx, instance, upTo, events)
}

// TestPushdownBacklogShipsInOneFlush: a flush that comes due while the
// binlog holds events the sender has not consumed waits for them, so a
// backlog reaches the hub as one delta — not as one delta for whatever
// the first frame happened to hold and a second an interval later.
func TestPushdownBacklogShipsInOneFlush(t *testing.T) {
	const interval = 400 * time.Millisecond
	sat := satelliteWithJobs(t, "ccr", 5)
	base, _ := newTestSink(t)
	sink := &heldSink{pushTestSink: &pushTestSink{testSink: base},
		entered: make(chan struct{}), release: make(chan struct{})}
	recv := &Receiver{Version: "v1", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	sender := pushdownSender(t, sat, "v1")
	sender.BatchSize = 8
	if sender.Pushdown, err = NewPushdownFolder(sender.Pushdown.eng, []realm.Info{jobs.RealmInfo()}, Filter{}, interval); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sender.Run(ctx, addr) }()
	waitFor(t, func() bool { return sink.coveredLSN() == sat.Binlog().Last() })
	resets := len(sink.appliedDeltas())

	// Past the interval, so that the first dirty bin makes a flush due.
	time.Sleep(interval + 50*time.Millisecond)
	sink.armed.Store(true)
	if err := sat.Insert(jobs.SchemaName, jobs.FactTable, septemberFact(t, 0)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered // the first frame is on the hub, unacknowledged
	for i := 1; i < 64; i++ {
		if err := sat.Insert(jobs.SchemaName, jobs.FactTable, septemberFact(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(sink.release)

	head := sat.Binlog().Last()
	waitFor(t, func() bool { return sink.coveredLSN() == head })
	if got := sink.appliedDeltas()[resets:]; len(got) != 1 || got[0].Reset || got[0].CoveredLSN != head {
		t.Errorf("the backlog reached the hub as %d deltas, want one incremental delta covering %d", len(got), head)
		for _, d := range got {
			t.Logf("  reset=%v covered=%d rows=%d", d.Reset, d.CoveredLSN, d.Rows())
		}
	}
	cancel()
	<-done
}
