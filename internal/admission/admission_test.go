package admission

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBucketRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBucket(10, 2) // 10/s, burst 2
	for i := 0; i < 2; i++ {
		if ok, _ := b.Take(now); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, after := b.Take(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if after <= 0 || after > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms]", after)
	}
	// One token refills after 100ms at 10/s.
	if ok, _ := b.Take(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("refilled token refused")
	}
	// Refill never exceeds burst: a long idle period buys 2, not 10.
	idle := now.Add(time.Hour)
	granted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.Take(idle); ok {
			granted++
		}
	}
	if granted != 2 {
		t.Fatalf("after idle got %d tokens, want burst 2", granted)
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.Take(time.Now()); !ok {
			t.Fatal("unlimited bucket refused")
		}
	}
}

func TestKeyedBucketsIsolationAndBound(t *testing.T) {
	now := time.Unix(1000, 0)
	k := NewKeyedBuckets(1, 1, 4)
	// Each key has its own bucket: draining one leaves others full.
	if ok, _ := k.Take("alice", now); !ok {
		t.Fatal("alice's first request refused")
	}
	if ok, _ := k.Take("alice", now); ok {
		t.Fatal("alice's second request admitted past burst")
	}
	if ok, _ := k.Take("bob", now); !ok {
		t.Fatal("bob throttled by alice's bucket")
	}
	// The key map is LRU-bounded.
	for i := 0; i < 10; i++ {
		k.Take(fmt.Sprintf("user-%d", i), now)
	}
	if got := k.ll.Len(); got != 4 {
		t.Fatalf("tracking %d keys, want bound 4", got)
	}
}

func TestQueueFIFOHandover(t *testing.T) {
	q := NewQueue(1, 4)
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two waiters queue behind the holder; releasing must serve them
	// strictly in arrival order.
	order := make(chan int, 2)
	var entered sync.WaitGroup
	ready := make(chan struct{}, 2)
	for i := 1; i <= 2; i++ {
		i := i
		entered.Add(1)
		go func() {
			defer entered.Done()
			ready <- struct{}{}
			if err := q.Acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
		}()
		<-ready
		// Wait until this goroutine is actually parked in the wait list
		// before starting the next, so arrival order is deterministic.
		deadline := time.Now().Add(2 * time.Second)
		for q.Depth() < i {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (depth %d)", i, q.Depth())
			}
			time.Sleep(time.Millisecond)
		}
	}
	q.Release()
	if got := <-order; got != 1 {
		t.Fatalf("first released slot went to waiter %d, want 1", got)
	}
	q.Release()
	if got := <-order; got != 2 {
		t.Fatalf("second released slot went to waiter %d, want 2", got)
	}
	entered.Wait()
	q.Release() // waiter 2's slot
	if q.Inflight() != 0 || q.Depth() != 0 {
		t.Fatalf("inflight=%d depth=%d after full drain", q.Inflight(), q.Depth())
	}
}

func TestQueueFullAndTimeout(t *testing.T) {
	q := NewQueue(1, 1)
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One waiter fits...
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		errc <- q.Acquire(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for q.Depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...the next arrival is refused instantly...
	if err := q.Acquire(context.Background()); err != ErrQueueFull {
		t.Fatalf("over-bound acquire: %v, want ErrQueueFull", err)
	}
	// ...and the queued one times out, leaving the queue clean.
	if err := <-errc; err != ErrQueueTimeout {
		t.Fatalf("queued acquire: %v, want ErrQueueTimeout", err)
	}
	if q.Depth() != 0 {
		t.Fatalf("depth %d after timeout, want 0", q.Depth())
	}
	q.Release()
	if q.Inflight() != 0 {
		t.Fatalf("inflight %d after release, want 0", q.Inflight())
	}
}

// TestQueueGrantCancelRace hammers the release/cancel race: a slot
// granted in the instant a waiter cancels must be passed on, never
// leaked. The queue must end the test fully drained.
func TestQueueGrantCancelRace(t *testing.T) {
	q := NewQueue(2, 64)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
				err := q.Acquire(ctx)
				cancel()
				if err == nil {
					q.Release()
				}
			}
		}(i)
	}
	wg.Wait()
	if q.Inflight() != 0 || q.Depth() != 0 {
		t.Fatalf("leaked: inflight=%d depth=%d", q.Inflight(), q.Depth())
	}
	// Every slot must still be acquirable.
	for i := 0; i < 2; i++ {
		if !q.TryAcquire() {
			t.Fatalf("slot %d unacquirable after race", i)
		}
	}
}

func TestControllerTiers(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	c := New(Config{
		Global:        Rate{RPS: 100, Burst: 100},
		PerCenter:     Rate{RPS: 10, Burst: 2},
		PerUser:       Rate{RPS: 10, Burst: 1},
		MaxConcurrent: -1,
		Clock:         clock,
	})
	// alice@ccr: first request admitted, second shed by her user tier.
	d := c.Admit(context.Background(), "alice", "ccr")
	if !d.Admitted {
		t.Fatalf("first request shed: %+v", d)
	}
	d.Release()
	d = c.Admit(context.Background(), "alice", "ccr")
	if d.Admitted || d.Reason != ReasonUserQuota {
		t.Fatalf("want user-quota shed, got %+v", d)
	}
	if d.RetryAfter <= 0 {
		t.Fatalf("shed without Retry-After: %+v", d)
	}
	// bob@ccr: his own user bucket is full, but the center's second
	// token admits him — then carol@ccr exhausts the center tier.
	d = c.Admit(context.Background(), "bob", "ccr")
	if !d.Admitted {
		t.Fatalf("bob shed: %+v", d)
	}
	d.Release()
	d = c.Admit(context.Background(), "carol", "ccr")
	if d.Admitted || d.Reason != ReasonCenterQuota {
		t.Fatalf("want center-quota shed, got %+v", d)
	}
	// A different center is unaffected.
	d = c.Admit(context.Background(), "dave", "xsede")
	if !d.Admitted {
		t.Fatalf("dave@xsede shed by ccr's quota: %+v", d)
	}
	d.Release()
}

func TestControllerGlobalBeforeTenant(t *testing.T) {
	now := time.Unix(5000, 0)
	c := New(Config{
		Global:        Rate{RPS: 1, Burst: 1},
		PerCenter:     Rate{RPS: -1},
		PerUser:       Rate{RPS: -1},
		MaxConcurrent: -1,
		Clock:         func() time.Time { return now },
	})
	if d := c.Admit(context.Background(), "a", ""); !d.Admitted {
		t.Fatalf("first: %+v", d)
	}
	d := c.Admit(context.Background(), "b", "")
	if d.Admitted || d.Reason != ReasonGlobalRate {
		t.Fatalf("want global shed, got %+v", d)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", d.RetryAfter)
	}
}

func TestControllerQueueShedding(t *testing.T) {
	c := New(Config{
		Global:        Rate{RPS: -1},
		PerCenter:     Rate{RPS: -1},
		PerUser:       Rate{RPS: -1},
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  30 * time.Millisecond,
	})
	hold := c.Admit(context.Background(), "u", "")
	if !hold.Admitted {
		t.Fatalf("holder shed: %+v", hold)
	}
	// A second request queues and times out.
	done := make(chan Decision, 1)
	go func() { done <- c.Admit(context.Background(), "u", "") }()
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// A third finds the queue full and sheds instantly.
	d3 := c.Admit(context.Background(), "u", "")
	if d3.Admitted || d3.Reason != ReasonQueueFull {
		t.Fatalf("want queue_full shed, got %+v", d3)
	}
	d2 := <-done
	if d2.Admitted || d2.Reason != ReasonQueueTimeout {
		t.Fatalf("want queue_timeout shed, got %+v", d2)
	}
	if d2.RetryAfter <= 0 || d3.RetryAfter <= 0 {
		t.Fatalf("queue sheds lack Retry-After: %+v %+v", d2, d3)
	}
	hold.Release()
	// With the slot free again, admission resumes immediately.
	d := c.Admit(context.Background(), "u", "")
	if !d.Admitted {
		t.Fatalf("post-release request shed: %+v", d)
	}
	d.Release()
	if st := c.Stats(); st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v after drain", st)
	}
}

// TestControllerDefaultsResolve pins the zero-config resolution.
func TestControllerDefaultsResolve(t *testing.T) {
	c := New(Config{})
	if c.cfg.Global.RPS != DefaultGlobalRate || c.cfg.Global.Burst != 2*DefaultGlobalRate {
		t.Fatalf("global tier %+v", c.cfg.Global)
	}
	if c.cfg.MaxConcurrent != DefaultMaxConcurrent || c.cfg.MaxQueue != DefaultQueueFactor*DefaultMaxConcurrent {
		t.Fatalf("queue bounds %d/%d", c.cfg.MaxConcurrent, c.cfg.MaxQueue)
	}
	if c.cfg.QueueTimeout != DefaultQueueTimeout {
		t.Fatalf("queue timeout %v", c.cfg.QueueTimeout)
	}
}

func TestDecisionReleaseIdempotent(t *testing.T) {
	c := New(Config{Global: Rate{RPS: -1}, PerCenter: Rate{RPS: -1}, PerUser: Rate{RPS: -1},
		MaxConcurrent: 1, MaxQueue: 1})
	d := c.Admit(context.Background(), "u", "")
	if !d.Admitted {
		t.Fatalf("shed: %+v", d)
	}
	d.Release()
	d.Release() // second release must be a no-op, not a panic/double-free
	var zero Decision
	zero.Release() // and a zero decision is releasable too
	if st := c.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight %d after idempotent releases", st.Inflight)
	}
}
