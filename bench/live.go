package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"xdmodfed/internal/core"
	"xdmodfed/internal/qcache"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/warehouse"
)

// liveStats is what the harness observed, from outside the system,
// over one live timed section. The end-to-end metrics come from it; a
// traced run also takes the layer counters at the bottom from it.
type liveStats struct {
	ops       int           // facts made chart-visible, or (chart-read) cache-hit requests served
	facts     int           // facts resident in the federation when the section ended
	wall, cpu time.Duration // of the part of the section ops was counted over
	wire      int64         // bytes on the wire for those ops
	heap      uint64        // live heap when the section ended
	latencyMS []float64     // the workload's user-visible latency, one sample per batch or cold request
	attempted int
	failed    int

	lagMS, lateMS []float64 // commit to hub position; generator lateness (open loop)
	cloudMS       []float64 // freshness of the cloud batches, which latencyMS leaves out (see liveTrickle)
	dirtyRebuilds int       // batches that found the hub dirty just before their visibility query
	chartMS       []float64 // cold (miss) chart GETs
	hotMS         []float64 // hot (hit) chart GETs
	responseBytes []float64
	cache         qcache.Stats
	frames        int // batch and delta frames the senders shipped
	deltas        int
	deltaRows     int
	reconnects    int
	binlogEvents  uint64 // appended to the members' binlogs during the section
	walBytes      int64  // appended to the members' WAL files during the section
}

func (st *liveStats) fail(format string, args ...any) {
	st.failed++
	fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
}

// meter brackets a timed section: CPU, wire bytes, binlog and WAL
// growth between start and stop.
type meter struct {
	fed   *federation
	t0    time.Time
	cpu0  time.Duration
	wire0 int64
	lsn0  uint64
	wal0  int64
}

func (f *federation) binlogHead() (lsn uint64) {
	for _, m := range f.members {
		lsn += m.sat.DB.Binlog().Last()
	}
	return lsn
}

func (f *federation) walSize() (n int64) {
	for _, m := range f.members {
		if fi, err := os.Stat(m.path); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// drainWAL waits for the WAL followers to write out what is committed.
func (f *federation) drainWAL() {
	deadline := time.Now().Add(visibleTimeout)
	for _, m := range f.members {
		for m.wal.Position() < m.sat.DB.Binlog().Last() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

func startMeter(f *federation) meter {
	f.drainWAL()
	cpu, _ := rusage()
	return meter{fed: f, t0: time.Now(), cpu0: cpu, wire0: f.proxy.Bytes(), lsn0: f.binlogHead(), wal0: f.walSize()}
}

// stop fills the section's totals into st; end is when it ended.
func (m meter) stop(st *liveStats, end time.Time) {
	cpu, _ := rusage()
	st.wall, st.cpu = end.Sub(m.t0), cpu-m.cpu0
	st.wire = m.fed.proxy.Bytes() - m.wire0
	st.heap = liveHeap()
	m.fed.drainWAL()
	st.binlogEvents = m.fed.binlogHead() - m.lsn0
	st.walBytes = m.fed.walSize() - m.wal0
	for _, mem := range m.fed.members {
		for _, ss := range mem.sat.SenderStats() {
			st.frames += ss.SentBatches + ss.Deltas
			st.deltas += ss.Deltas
			st.deltaRows += ss.DeltaRows
		}
	}
	st.reconnects = int(m.fed.proxy.Conns()) - len(m.fed.members)
	st.cache, _ = m.fed.front.server.CacheStats()
	st.chartMS, st.responseBytes = m.fed.front.samples()
}

// lastFactInsert finds the LSN of the newest Jobs fact insert after
// from: what a pushdown member's DeltaCovered must reach. (The binlog's
// head is further on, past the aggregate-table events the satellite's
// own fold appended, and DeltaCovered never gets there: the sender
// flushes only when bins changed.)
func lastFactInsert(sat *core.Satellite, from uint64) uint64 {
	evs, _ := sat.DB.Binlog().ReadFrom(from, 0)
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == warehouse.EvInsert && evs[i].Table == jobs.FactTable {
			return evs[i].LSN
		}
	}
	return from
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveBackfill is the closed loop: one goroutine reads the next batch
// of lines from the log files and ingests it as soon as the previous
// one committed; the satellite replicates behind it. The section ends
// when the hub's chart shows every fact. A batch's latency is what the
// ingesting client waits for: the read of its lines to their commit.
// (How far the hub trails is replicate.lag_*; where the backfill ends
// is in ops_per_s.)
func liveBackfill(e *env, budget time.Duration) (*liveStats, error) {
	in, err := e.openInput()
	if err != nil {
		return nil, err
	}
	defer in.Close()
	fed, sat := e.fed, e.fed.members[0].sat
	st := &liveStats{}

	type committed struct {
		lsn      uint64
		read, at time.Time
	}
	queue := make(chan committed, e.batches) // sized to the number of sends: the ingester never blocks on the watcher
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for c := range queue {
			at, err := fed.awaitCovered(0, c.lsn)
			if err != nil {
				st.fail("%v", err)
				continue
			}
			st.latencyMS = append(st.latencyMS, ms(c.at.Sub(c.read)))
			st.lagMS = append(st.lagMS, ms(at.Sub(c.at)))
		}
	}()

	// The watcher owns st until it is done; the loop counts on its own.
	var attempted, failed, ops int
	var before uint64 // binlog head before the last batch
	m := startMeter(fed)
	for k := 0; k < e.batches && time.Since(m.t0) < budget; k++ {
		read := time.Now()
		before = sat.DB.Binlog().Last()
		b, ok, err := in.next()
		if err != nil {
			close(queue)
			return nil, err
		}
		if !ok {
			break
		}
		records, rejected, err := ingestBatch(sat.Pipeline, b)
		if err != nil {
			close(queue)
			return nil, err
		}
		attempted += records + 1
		failed += rejected
		ops += records - rejected
		queue <- committed{sat.DB.Binlog().Last(), read, time.Now()}
	}
	close(queue)
	watcher.Wait()
	st.attempted, st.failed, st.ops = st.attempted+attempted, st.failed+failed, ops
	st.facts = e.preloaded + st.ops
	if e.w.mode == "pushdown" {
		// Wait for the deltas before asking for the chart: polling it
		// would have the hub rebuild from partials over and over while
		// it is still applying them.
		if err := fed.awaitDeltas(0, lastFactInsert(sat, before)); err != nil {
			st.fail("%v", err)
		}
	}
	_, end, dirty, err := fed.awaitVisible(0, sat.DB.Binlog().Last(), "jobs", st.facts)
	if err != nil {
		st.fail("%v", err)
		end = time.Now()
	}
	if dirty {
		st.dirtyRebuilds++
	}
	m.stop(st, end)
	return st, nil
}

// liveTrickle is the open loop: batch k is due at t0 + k*interval
// whatever the system is doing. One goroutine ingests on that
// schedule; a second, with one HTTP connection, takes the committed
// batches in order and waits for each to be covered by the hub's
// position and included in one chart GET. Freshness runs from the
// batch's due time to the completion of that GET, so time spent queued
// behind a slow predecessor counts. Cloud batches are timed apart from
// the rest: where they alternate with storage days the two take about
// 10 and 4 ms, the median of both falls in the gap between them, and
// the cloud batches' own median moves by a quarter between runs on one
// seed (in some rounds it doubles half-way and stays there), which is
// more than a bound may be. They count as operations and are reported
// per layer; the storage days are the workload's latency.
func liveTrickle(e *env, budget time.Duration) (*liveStats, error) {
	in, err := e.openInput()
	if err != nil {
		return nil, err
	}
	defer in.Close()
	fed := e.fed
	st := &liveStats{}

	type committed struct {
		member  int
		kind    string
		lsn     uint64
		want    int // facts the hub's chart must show to include this batch
		due, at time.Time
	}
	queue := make(chan committed, e.batches) // sized to the number of sends: the schedule never waits for the checker
	var lastVisible time.Time
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for c := range queue {
			covered, at, dirty, err := fed.awaitVisible(c.member, c.lsn, c.kind, c.want)
			if err != nil {
				st.fail("%v", err)
				continue
			}
			st.lagMS = append(st.lagMS, ms(covered.Sub(c.at)))
			if dirty {
				st.dirtyRebuilds++
			}
			if c.kind == "cloud" {
				st.cloudMS = append(st.cloudMS, ms(at.Sub(c.due)))
			} else {
				st.latencyMS = append(st.latencyMS, ms(at.Sub(c.due)))
			}
			lastVisible = at
		}
	}()

	// counts[kind][member] is the row count of the member's fact table
	// for that kind of batch at its last commit: their sum is the realm's
	// running control total.
	counts := map[string][]int{}
	factRows := func(member int, kind string) int {
		info, _ := fed.members[member].sat.Registry.Get(countChart[kind].realm)
		return fed.members[member].sat.DB.Count(info.Schema, info.FactTable)
	}
	for kind := range countChart {
		counts[kind] = make([]int, len(fed.members))
		for i := range fed.members {
			counts[kind][i] = factRows(i, kind)
		}
	}

	// The checker owns st until it is done; the loop counts on its own.
	var attempted, failed, ops int
	var lateMS []float64
	m := startMeter(fed)
	for k := 0; k < e.batches && time.Since(m.t0) < budget; k++ {
		due := m.t0.Add(time.Duration(k) * e.interval)
		time.Sleep(time.Until(due))
		lateMS = append(lateMS, ms(time.Since(due)))
		b, ok, err := in.next()
		if err != nil {
			close(queue)
			return nil, err
		}
		if !ok {
			break
		}
		sat := fed.members[b.member].sat
		records, rejected, err := ingestBatch(sat.Pipeline, b)
		if err != nil {
			close(queue)
			return nil, err
		}
		at := time.Now()
		attempted += records + 1
		failed += rejected
		ops += records - rejected
		counts[b.kind][b.member] = factRows(b.member, b.kind)
		want := 0
		for _, n := range counts[b.kind] {
			want += n
		}
		queue <- committed{b.member, b.kind, sat.DB.Binlog().Last(), want, due, at}
	}
	close(queue)
	checker.Wait()
	st.attempted, st.failed, st.ops, st.lateMS = st.attempted+attempted, st.failed+failed, ops, lateMS
	st.facts = e.preloaded + st.ops
	if lastVisible.IsZero() {
		lastVisible = time.Now()
	}
	m.stop(st, lastVisible)
	return st, nil
}
