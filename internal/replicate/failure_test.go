package replicate

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"xdmodfed/internal/faults"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// chaosProxy forwards TCP to a backend but kills every connection
// after passing a bounded number of bytes, forcing senders to
// reconnect and resume mid-stream.
type chaosProxy struct {
	ln      net.Listener
	backend string
	limit   int
	wg      sync.WaitGroup
	mu      sync.Mutex
	drops   int
	closed  bool
}

func newChaosProxy(t *testing.T, backend string, byteLimit int) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend, limit: byteLimit}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) Drops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

func (p *chaosProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn)
		}()
	}
}

func (p *chaosProxy) serve(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	done := make(chan struct{}, 2)
	// Client -> server direction is byte-limited; hitting the limit
	// kills both sides of the proxied connection.
	go func() {
		io.CopyN(server, client, int64(p.limit))
		p.mu.Lock()
		if !p.closed {
			p.drops++
		}
		p.mu.Unlock()
		client.Close()
		server.Close()
		done <- struct{}{}
	}()
	go func() {
		io.Copy(client, server)
		done <- struct{}{}
	}()
	<-done
}

func (p *chaosProxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// TestReplicationSurvivesConnectionDrops: a sender streaming through a
// connection-killing proxy must still deliver every row exactly once,
// by resuming from the hub's durable commit position on each
// reconnect.
func TestReplicationSurvivesConnectionDrops(t *testing.T) {
	const rows = 300
	sat := satelliteWithJobs(t, "ccr", rows)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink}
	hubAddr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	// Kill connections every ~4 KiB (the 300 facts are ~20 KiB on the
	// wire) so the stream needs several sessions to complete.
	proxy := newChaosProxy(t, hubAddr, 4*1024)
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sender := &Sender{
		Instance: "ccr", Version: "v", DB: sat,
		Rewriter:  NewRewriter("ccr", Filter{}),
		BatchSize: 16, // small batches so drops land mid-stream
	}
	go sender.RunWithRetry(ctx, proxy.Addr(), time.Millisecond)

	waitFor(t, func() bool {
		return hub.Count(HubSchema("ccr"), jobs.FactTable) == rows
	})
	if proxy.Drops() == 0 {
		t.Error("proxy never dropped a connection; test exercised nothing")
	}
	// Exactly-once: no duplicated rows despite replays (the hub resumes
	// from its committed position, and DDL replay is idempotent).
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != rows {
		t.Errorf("rows = %d, want %d", got, rows)
	}
	t.Logf("stream survived %d connection drops", proxy.Drops())
}

// TestReplicationExactlyOnceUnderInjectedFaults drives the seeded
// fault-injection layer instead of ad-hoc byte-limited proxying: every
// hub-side read and write can drop the connection mid-frame, and the
// stream must still deliver every row exactly once by resuming from
// the hub's durable commit position.
func TestReplicationExactlyOnceUnderInjectedFaults(t *testing.T) {
	const rows = 300
	reg := faults.New(7)
	reg.Enable(faults.ConnReadDrop, 0.05)
	reg.Enable(faults.ConnWriteDrop, 0.05)

	sat := satelliteWithJobs(t, "ccr", rows)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink, Faults: reg}
	hubAddr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sender := &Sender{
		Instance: "ccr", Version: "v", DB: sat,
		Rewriter:  NewRewriter("ccr", Filter{}),
		BatchSize: 8, // small batches so injected drops land mid-stream
	}
	go sender.RunWithRetry(ctx, hubAddr, time.Millisecond)

	deadline := time.Now().Add(30 * time.Second)
	for hub.Count(HubSchema("ccr"), jobs.FactTable) != rows {
		if time.Now().After(deadline) {
			t.Fatalf("stream never converged: %d of %d rows after %d injected faults",
				hub.Count(HubSchema("ccr"), jobs.FactTable), rows, reg.Injected())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Injected() == 0 {
		t.Error("no faults injected; test exercised nothing")
	}
	// Exactly-once: resumption from the commit position never replays a
	// row into the fact table twice.
	if got := hub.Count(HubSchema("ccr"), jobs.FactTable); got != rows {
		t.Errorf("rows = %d, want %d", got, rows)
	}
	t.Logf("stream converged across %d injected connection faults", reg.Injected())
}

// TestConcurrentIngestReplicateQuery: writers, a replication stream,
// and readers share one satellite concurrently without corruption.
func TestConcurrentIngestReplicateQuery(t *testing.T) {
	sat := satelliteWithJobs(t, "ccr", 10)
	sink, hub := newTestSink(t)
	recv := &Receiver{Version: "v", Sink: sink}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sender := &Sender{Instance: "ccr", Version: "v", DB: sat, Rewriter: NewRewriter("ccr", Filter{})}
	go sender.Run(ctx, addr)

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	base := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := shredder.JobRecord{
					LocalJobID: int64(1000 + w*1000 + i), User: "u", Account: "a",
					Resource: "ccr-cluster", Queue: "q", Nodes: 1, Cores: 2,
					Submit: base, Start: base.Add(time.Minute), End: base.Add(time.Hour),
				}
				row, err := jobs.FactFromRecord(rec, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	go func() {
		tab, _ := sat.TableIn(jobs.SchemaName, jobs.FactTable)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sat.View(func() error {
				tab.Scan(func(warehouse.Row) bool { return true })
				return nil
			})
		}
	}()
	wg.Wait()
	close(stop)

	total := 10 + writers*perWriter
	waitFor(t, func() bool {
		return hub.Count(HubSchema("ccr"), jobs.FactTable) == total
	})
}
