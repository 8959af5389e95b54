package replicate

import (
	"context"
	"encoding/gob"
	"net"
	"testing"
	"time"
)

func TestNextRetryDelayGrowthAndCap(t *testing.T) {
	d := 100 * time.Millisecond
	want := []time.Duration{
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
	}
	for i, w := range want {
		d = nextRetryDelay(d)
		if d != w {
			t.Fatalf("step %d: delay = %v, want %v", i, d, w)
		}
	}
	for i := 0; i < 20; i++ {
		d = nextRetryDelay(d)
	}
	if d != MaxRetryBackoff {
		t.Fatalf("delay = %v after 20 more doublings, want cap %v", d, MaxRetryBackoff)
	}
}

func TestJitteredDelayBounds(t *testing.T) {
	d := 800 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := jitteredDelay(d)
		if j < d/2 || j > d {
			t.Fatalf("jitteredDelay(%v) = %v, outside [%v, %v]", d, j, d/2, d)
		}
	}
}

// TestBackoffResetsAfterHandshake proves the delay resets to the
// initial value after every successful connect: a hub that accepts the
// handshake and then drops the connection 12 times in a row must be
// redialed ~12 times at the initial 10ms delay (total well under a
// second of sleeping). Without the reset the delays would sum to
// 10+20+40+...+20480ms ≈ 41s and the test deadline would blow.
func TestBackoffResetsAfterHandshake(t *testing.T) {
	// Pending binlog events make the sender try to ship a batch right
	// after the handshake, so it notices the dropped connection instead
	// of blocking on an empty binlog.
	db := satelliteWithJobs(t, "backoffsat", 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const drops = 12
	accepted := make(chan struct{}, drops+1)
	go func() {
		for i := 0; i < drops; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var h hello
			if err := gob.NewDecoder(conn).Decode(&h); err == nil {
				// Accept the handshake, then drop the connection: a
				// transient failure on a healthy hub.
				gob.NewEncoder(conn).Encode(helloAck{OK: true, Wire: wireFormat, Resume: 0, Heartbeat: DefaultHeartbeatInterval})
			}
			conn.Close()
			accepted <- struct{}{}
		}
	}()

	s := &Sender{
		Instance: "backoffsat",
		Version:  "t",
		DB:       db,
		Rewriter: NewRewriter("backoffsat", Filter{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.RunWithRetry(ctx, ln.Addr().String(), 10*time.Millisecond) }()

	deadline := time.After(5 * time.Second)
	for i := 0; i < drops; i++ {
		select {
		case <-accepted:
		case <-deadline:
			t.Fatalf("only %d/%d reconnects before deadline: backoff did not reset after handshake", i, drops)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWithRetry returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWithRetry did not return after cancel")
	}
}

// TestRefusedBatchesBackOff: a hub that accepts every handshake and
// answers every batch with an error ack is redialed with growing delays:
// a refused batch does not reset the backoff the way a dropped
// connection after a handshake does (TestBackoffResetsAfterHandshake).
// From a 10ms start, jittered delays of at least 5, 10, 20, 40, 80 and
// 160ms leave room for at most 7 dials in 600ms; a reset backoff would
// make dozens.
func TestRefusedBatchesBackOff(t *testing.T) {
	db := satelliteWithJobs(t, "refusedsat", 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dials := make(chan time.Time, 100)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials <- time.Now()
			dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
			var h hello
			var b batch
			if dec.Decode(&h) == nil &&
				enc.Encode(helloAck{OK: true, Wire: wireFormat, Heartbeat: DefaultHeartbeatInterval}) == nil &&
				dec.Decode(&b) == nil {
				enc.Encode(ack{UpTo: b.UpTo, Err: "cannot apply"})
			}
			conn.Close()
		}
	}()

	s := &Sender{Instance: "refusedsat", Version: "t", DB: db, Rewriter: NewRewriter("refusedsat", Filter{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunWithRetry(ctx, ln.Addr().String(), 10*time.Millisecond) }()
	time.Sleep(600 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunWithRetry returned %v after cancel", err)
	}
	var at []time.Time
	for len(dials) > 0 {
		at = append(at, <-dials)
	}
	if len(at) < 3 || len(at) > 7 {
		t.Fatalf("%d dials in 600ms, want 3 to 7: refused batches must back off", len(at))
	}
	for i := 2; i < len(at); i++ {
		if gap, prev := at[i].Sub(at[i-1]), at[i-1].Sub(at[i-2]); gap < prev/2 {
			t.Errorf("redial gap %d = %v after %v: the backoff did not grow", i, gap, prev)
		}
	}
	if st := s.Stats(); st.SentBatches != 0 || st.Position != 0 {
		t.Errorf("sender counted a refused batch: %+v", st)
	}
}
