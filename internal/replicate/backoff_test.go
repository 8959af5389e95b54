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
