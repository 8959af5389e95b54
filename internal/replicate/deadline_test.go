package replicate

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// TestReceiverDetectsStalledPeer: a satellite that handshakes and then
// goes silent (stall, partition, power loss) must be disconnected
// within 2× the heartbeat interval instead of pinning a hub goroutine
// forever.
func TestReceiverDetectsStalledPeer(t *testing.T) {
	const hb = 50 * time.Millisecond
	sink, _ := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: hb}
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
	if err := gob.NewEncoder(conn).Encode(hello{Instance: "ccr", Version: "v", Wire: wireFormat}); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(conn)
	var ha helloAck
	if err := dec.Decode(&ha); err != nil || !ha.OK {
		t.Fatalf("handshake: %v %+v", err, ha)
	}
	if ha.Heartbeat != hb {
		t.Fatalf("hub advertised heartbeat %v, want %v", ha.Heartbeat, hb)
	}

	// Never send a batch or heartbeat; drain hub keep-alives until the
	// hub gives up on us. It must do so within 2× the interval (plus
	// scheduling slack), not hang.
	start := time.Now()
	for {
		var a ack
		if err := dec.Decode(&a); err != nil {
			break // hub closed the connection
		}
	}
	elapsed := time.Since(start)
	if elapsed > 4*hb {
		t.Fatalf("hub took %v to drop a stalled peer, want ≈%v", elapsed, 2*hb)
	}
}

// TestSenderDetectsDeadHub: a hub that handshakes and then never acks
// or heartbeats again must not hang the sender forever — the read
// deadline (2× heartbeat) fires and Run returns.
func TestSenderDetectsDeadHub(t *testing.T) {
	const hb = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var h hello
		if err := gob.NewDecoder(conn).Decode(&h); err != nil {
			return
		}
		if err := gob.NewEncoder(conn).Encode(helloAck{OK: true, Wire: wireFormat, Resume: 0, Heartbeat: hb}); err != nil {
			return
		}
		// Play dead: swallow frames, never respond.
		io.Copy(io.Discard, conn)
	}()

	sat := satelliteWithJobs(t, "ccr", 10)
	sender := &Sender{Instance: "ccr", Version: "v", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	errc := make(chan error, 1)
	start := time.Now()
	go func() { errc <- sender.Run(context.Background(), ln.Addr().String()) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Run returned nil against a dead hub")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("sender took %v to notice the dead hub, want ≈%v", elapsed, 2*hb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender hung on a dead hub")
	}
}

// TestIdleConnectionSurvivesOnHeartbeats: with nothing to replicate
// for many intervals, both sides' keep-alives must hold the
// connection open, and a late write still flows through it.
func TestIdleConnectionSurvivesOnHeartbeats(t *testing.T) {
	const hb = 50 * time.Millisecond
	sat := satelliteWithJobs(t, "ccr", 5)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: hb}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender := &Sender{Instance: "ccr", Version: "v", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	errc := make(chan error, 1)
	go func() { errc <- sender.Run(ctx, addr) }()

	waitFor(t, func() bool { return hub.Count(HubSchema("ccr"), jobs.FactTable) == 5 })
	// Idle for 10 heartbeat intervals — far past the 2× deadline; only
	// keep-alives prevent either side from declaring the other dead.
	time.Sleep(10 * hb)
	select {
	case err := <-errc:
		t.Fatalf("sender dropped an idle-but-healthy connection: %v", err)
	default:
	}
	rec := shredder.JobRecord{
		LocalJobID: 9999, User: "u", Account: "a", Resource: "ccr-cluster", Queue: "q",
		Nodes: 1, Cores: 2,
		Submit: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 1, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 1, 1, 2, 0, 0, 0, time.UTC),
	}
	row, err := jobs.FactFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hub.Count(HubSchema("ccr"), jobs.FactTable) == 6 })
}

// TestReceiverRejectsOversizeFrame: a frame larger than MaxFrameBytes
// (corrupt length prefix, runaway batch) must close the connection
// without being applied, instead of buffering without bound.
func TestReceiverRejectsOversizeFrame(t *testing.T) {
	sink, hub := newTestSink(t)
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
	if err := enc.Encode(hello{Instance: "ccr", Version: "v", Wire: wireFormat}); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(conn)
	var ha helloAck
	if err := dec.Decode(&ha); err != nil || !ha.OK {
		t.Fatalf("handshake: %v %+v", err, ha)
	}
	huge := batch{UpTo: 1, Packed: warehouse.AppendEvents(nil, []warehouse.Event{{
		LSN: 1, Kind: warehouse.EvInsert, Schema: "s", Table: "t",
		Row: []any{strings.Repeat("x", 1<<20)}, // ~1 MiB >> 8 KiB cap
	}})}
	// The hub must hang up mid-frame; with a ~1MiB frame against an
	// 8KiB budget either the write fails or the follow-up read does.
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := enc.Encode(huge); err == nil {
		var a ack
		for {
			if err := dec.Decode(&a); err != nil {
				break
			}
			if !a.HB {
				t.Fatalf("hub acked an oversize frame: %+v", a)
			}
		}
	}
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != 0 {
		t.Fatalf("oversize frame was applied: %d rows", got)
	}
}

// TestReceiverRejectsMalformedPackedEvents: a frame whose Packed bytes
// do not decode is refused — an ack whose Err says why, then the
// connection closes — with nothing of the frame applied and the
// member's position where the last good frame left it.
func TestReceiverRejectsMalformedPackedEvents(t *testing.T) {
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: 50 * time.Millisecond}
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
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(hello{Instance: "ccr", Version: "v", Wire: wireFormat}); err != nil {
		t.Fatal(err)
	}
	var ha helloAck
	if err := dec.Decode(&ha); err != nil || !ha.OK {
		t.Fatalf("handshake: %v %+v", err, ha)
	}
	awaitAck := func() (ack, error) {
		for {
			var a ack
			if err := dec.Decode(&a); err != nil || !a.HB {
				return a, err
			}
		}
	}

	// A good frame first: the hub's schema and one row, position 3.
	def := jobs.Def()
	schema := HubSchema("ccr")
	row := func(id int64) []any {
		r, err := jobs.FactRowFromRecord(shredder.JobRecord{
			LocalJobID: id, User: "u", Account: "a", Resource: "ccr-cluster", Queue: "q", Nodes: 1, Cores: 2,
			Submit: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			Start:  time.Date(2017, 1, 1, 1, 0, 0, 0, time.UTC),
			End:    time.Date(2017, 1, 1, 2, 0, 0, 0, time.UTC),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	good := warehouse.AppendEvents(nil, []warehouse.Event{
		{LSN: 1, Kind: warehouse.EvCreateSchema, Schema: schema},
		{LSN: 2, Kind: warehouse.EvCreateTable, Schema: schema, Table: def.Name, Def: &def},
		{LSN: 3, Kind: warehouse.EvInsert, Schema: schema, Table: def.Name, Row: row(1)},
	})
	if err := enc.Encode(batch{UpTo: 3, Packed: good}); err != nil {
		t.Fatal(err)
	}
	if a, err := awaitAck(); err != nil || a.UpTo != 3 {
		t.Fatalf("good frame: ack %+v, %v", a, err)
	}

	// Then two more rows, the second cut short mid-cell.
	bad := warehouse.AppendEvents(nil, []warehouse.Event{
		{LSN: 4, Kind: warehouse.EvInsert, Schema: schema, Table: def.Name, Row: row(2)},
		{LSN: 5, Kind: warehouse.EvInsert, Schema: schema, Table: def.Name, Row: row(3)},
	})
	if err := enc.Encode(batch{UpTo: 5, Packed: bad[:len(bad)-3]}); err != nil {
		t.Fatal(err)
	}
	if a, err := awaitAck(); err != nil || a.UpTo != 5 || a.Err == "" {
		t.Fatalf("a frame whose events do not decode: ack %+v, %v; want it refused", a, err)
	}
	recv.Close() // the handler has returned: what it applied is final
	if got := hub.Count(schema, def.Name); got != 1 {
		t.Errorf("hub holds %d rows, want the 1 of the good frame: part of the malformed frame was applied", got)
	}
	if pos, _ := sink.Resume("ccr"); pos != 3 {
		t.Errorf("member position %d after the malformed frame, want 3", pos)
	}
}

// TestReceiverRefusesBadFramesWithAnAck: after a good handshake, a
// frame whose Packed events do not decode, and one carrying pushdown
// deltas the connection never negotiated, are each answered with an
// ack whose Err says why — a refusal the sender backs off from, where
// a plain close would have it re-send at once — and the sink sees no
// event of either.
func TestReceiverRefusesBadFramesWithAnAck(t *testing.T) {
	db := satelliteWithJobs(t, "badsat", 3)
	evs, err := db.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	evs, upTo := NewRewriter("badsat", Filter{}).ProcessBatch(evs)
	packed := warehouse.AppendEvents(nil, evs)
	corrupt := packed[:len(packed)-3]
	delta := aggregate.Delta{Realm: "Jobs", CoveredLSN: upTo}
	for _, c := range []struct {
		name  string
		frame batch
	}{
		{"events that do not decode", batch{UpTo: upTo, Packed: corrupt}},
		{"unnegotiated deltas", batch{UpTo: upTo, Packed: packed, Deltas: []aggregate.Delta{delta}}},
	} {
		sink := &frameSink{}
		r := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: time.Second}
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer server.Close()
			r.serve(server)
		}()
		client.SetDeadline(time.Now().Add(5 * time.Second))
		enc, dec := gob.NewEncoder(client), gob.NewDecoder(client)
		if err := enc.Encode(hello{Instance: "badsat", Version: "v", Wire: wireFormat}); err != nil {
			t.Fatal(err)
		}
		var ha helloAck
		if err := dec.Decode(&ha); err != nil || !ha.OK {
			t.Fatalf("%s: handshake: %v %+v", c.name, err, ha)
		}
		if err := enc.Encode(c.frame); err != nil {
			t.Fatal(err)
		}
		var a ack
		for a.HB || a == (ack{}) {
			a = ack{}
			if err := dec.Decode(&a); err != nil {
				t.Fatalf("%s: no ack: %v", c.name, err)
			}
		}
		if a.UpTo != upTo || a.Err == "" {
			t.Errorf("%s: ack %+v, want the frame UpTo %d refused with a reason", c.name, a, upTo)
		}
		client.Close()
		<-served
		r.wg.Wait()
		if len(sink.calls) != 0 {
			t.Errorf("%s: the sink saw %v", c.name, sink.calls)
		}
	}
}

// The 8.0 build's frames, which carried events as gob and had no Wire
// field in the handshake (gob matches structs by field name).
type (
	hello80    struct{ Instance, Version string }
	helloAck80 struct {
		OK        bool
		Err       string
		Resume    uint64
		Heartbeat time.Duration
	}
	batch80 struct {
		UpTo   uint64
		Events []warehouse.Event
	}
)

// TestReceiverRefusesOldWireFormatSatellite: a satellite whose build
// ships events as gob is refused at hello even when its config carries
// the hub's version string — and a batch it sends regardless is never
// acked, since the hub would decode it as a frame of no events.
func TestReceiverRefusesOldWireFormatSatellite(t *testing.T) {
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: 50 * time.Millisecond}
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
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(hello80{Instance: "ccr", Version: "v"}); err != nil {
		t.Fatal(err)
	}
	var ha helloAck
	if err := dec.Decode(&ha); err != nil || ha.OK || !strings.Contains(ha.Err, "wire format mismatch") {
		t.Fatalf("hello without a wire format: ack %+v, %v; want a wire format refusal", ha, err)
	}
	schema := HubSchema("ccr")
	if err := enc.Encode(batch80{UpTo: 1, Events: []warehouse.Event{
		{LSN: 1, Kind: warehouse.EvCreateSchema, Schema: schema},
	}}); err == nil {
		for {
			var a ack
			if err := dec.Decode(&a); err != nil {
				break // hub hung up
			}
			if !a.HB {
				t.Fatalf("hub acked a gob-events batch it cannot see into: %+v", a)
			}
		}
	}
	recv.Close()
	if slices.Contains(hub.Schemas(), schema) {
		t.Error("the refused peer's batch was applied")
	}
	if pos, _ := sink.Resume("ccr"); pos != 0 {
		t.Errorf("member position %d after a refused handshake, want 0", pos)
	}
}

// TestSenderRefusesOldWireFormatHub: a hub whose build predates Packed
// accepts any hello whose version string matches; the satellite must
// stop at its ack, permanently, without sending it a batch.
func TestSenderRefusesOldWireFormatHub(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	afterAck := make(chan error, 1) // what the hub reads after its OK
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			afterAck <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		dec := gob.NewDecoder(conn)
		var h hello80
		if err := dec.Decode(&h); err != nil {
			afterAck <- err
			return
		}
		if err := gob.NewEncoder(conn).Encode(helloAck80{OK: true, Heartbeat: 50 * time.Millisecond}); err != nil {
			afterAck <- err
			return
		}
		var b batch80
		afterAck <- dec.Decode(&b)
	}()

	sat := satelliteWithJobs(t, "ccr", 10)
	sender := &Sender{Instance: "ccr", Version: "v", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = sender.RunWithRetry(ctx, ln.Addr().String(), time.Millisecond)
	if !errors.Is(err, ErrHandshakeRejected) || !strings.Contains(err.Error(), "wire format mismatch") {
		t.Fatalf("RunWithRetry against an old-format hub = %v, want a permanent wire format rejection", err)
	}
	if err := <-afterAck; err != io.EOF {
		t.Fatalf("hub read %v after its ack, want EOF: the satellite sent a frame", err)
	}
	if st := sender.Stats(); st.SentBatches != 0 || st.Position != 0 {
		t.Fatalf("sender progressed against an old-format hub: %+v", st)
	}
}

// TestWireFormat4PeersAreRefused: wire format 5 added the event codec's
// string reference, which a build of format 4 cannot decode. A hub of
// this build refuses a format-4 hello, and a sender of this build stops
// at a format-4 hub's OK ack without sending a batch.
func TestWireFormat4PeersAreRefused(t *testing.T) {
	const previous = 4
	if wireFormat != previous+1 {
		t.Fatalf("wireFormat is %d; this test pins the step from %d", wireFormat, previous)
	}
	t.Run("hub", func(t *testing.T) {
		sink, _ := newTestSink(t)
		recv := &Receiver{Version: "v", Sink: sink, HeartbeatInterval: 50 * time.Millisecond}
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
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := gob.NewEncoder(conn).Encode(hello{Instance: "ccr", Version: "v", Wire: previous}); err != nil {
			t.Fatal(err)
		}
		var ha helloAck
		if err := gob.NewDecoder(conn).Decode(&ha); err != nil || ha.OK || !strings.Contains(ha.Err, "wire format mismatch") {
			t.Fatalf("hello of wire format %d: ack %+v, %v; want a wire format refusal", previous, ha, err)
		}
		if pos, _ := sink.Resume("ccr"); pos != 0 {
			t.Errorf("member position %d after a refused handshake, want 0", pos)
		}
	})
	t.Run("sender", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		afterAck := make(chan error, 1) // what the hub reads after its OK
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				afterAck <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			dec := gob.NewDecoder(conn)
			var h hello
			if err := dec.Decode(&h); err != nil {
				afterAck <- err
				return
			}
			if err := gob.NewEncoder(conn).Encode(helloAck{OK: true, Wire: previous, Heartbeat: 50 * time.Millisecond}); err != nil {
				afterAck <- err
				return
			}
			var b batch
			afterAck <- dec.Decode(&b)
		}()
		sender := &Sender{Instance: "ccr", Version: "v", DB: satelliteWithJobs(t, "ccr", 10), Rewriter: NewRewriter("ccr", Filter{})}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = sender.RunWithRetry(ctx, ln.Addr().String(), time.Millisecond)
		if !errors.Is(err, ErrHandshakeRejected) || !strings.Contains(err.Error(), "wire format mismatch") {
			t.Fatalf("RunWithRetry against a wire-%d hub = %v, want a permanent wire format rejection", previous, err)
		}
		if err := <-afterAck; err != io.EOF {
			t.Fatalf("hub read %v after its ack, want EOF: the satellite sent a frame", err)
		}
		if st := sender.Stats(); st.SentBatches != 0 || st.Position != 0 {
			t.Fatalf("sender progressed against a wire-%d hub: %+v", previous, st)
		}
	})
}
