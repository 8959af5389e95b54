package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/rest"
	"xdmodfed/internal/warehouse"
)

// Fixed daemon settings, the same on both sides of any comparison.
// Everything not named here is the shipped default: admission control
// off, query cache at its 64 MiB default, default heartbeats.
const (
	walFsyncPolicy        = warehouse.FsyncInterval
	walFsyncInterval      = 100 * time.Millisecond
	pushdownFlushInterval = "200ms"
	hubName               = "fedhub"
	benchUser             = "bench"
	benchPassword         = "pipeline-bench-pass"
	// A batch not on the hub's charts by then has failed. The reference
	// box shows every batch within a second; the rest is room for a
	// shared host's slow spells, so that no operation fails on one.
	visibleTimeout = 20 * time.Second
	// A pushdown member's tick table, and how often the harness inserts
	// into it while it waits for the member's deltas (see awaitDeltas).
	tickSchema, tickTable = "bench", "tick"
	tickInterval          = 20 * time.Millisecond
)

// levels are the aggregation levels of the hub and of every member:
// pushdown is granted only on an exact levels-digest match.
func levels() []config.AggregationLevels {
	return []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory()}
}

// memberSpec describes one satellite of a workload's federation.
type memberSpec struct {
	name      string
	resources []config.ResourceConfig
	realms    []string // realms the route to the hub replicates
}

// member is one live satellite with its WAL.
type member struct {
	spec  memberSpec
	sat   *core.Satellite
	wal   *warehouse.LogWriter
	path  string // WAL file
	ticks int64  // rows in the tick table (pushdown members only)
}

// filter is the replication filter StartFederation builds for the
// member's route; the control check and the stepped replay pass the
// binlog through it.
func (spec memberSpec) filter() replicate.Filter {
	include := map[string]bool{}
	for _, r := range spec.realms {
		for _, t := range core.FederatedTablesFor(r) {
			include[t] = true
		}
	}
	return replicate.Filter{IncludeTables: include}
}

// hubFront is a hub behind a real HTTP listener with a signed-on user.
type hubFront struct {
	hub    *core.Hub
	server *rest.Server
	srv    *http.Server
	done   chan struct{}
	url    string
	token  string
	client *http.Client

	mu      sync.Mutex
	tookMS  []float64 // latency of every chart GET, in issue order per client
	bodyLen []float64
}

func newHub() (*core.Hub, error) {
	hub, err := core.NewHub(config.InstanceConfig{Name: hubName, Version: core.Version, AggregationLevels: levels()})
	if err != nil {
		return nil, err
	}
	err = hub.Auth.Vault().Create(auth.User{Username: benchUser, Role: auth.RoleUser, DisplayName: "Pipeline Bench"}, benchPassword)
	return hub, err
}

// serve puts a fresh rest server (and so a cold query cache) over hub
// behind a loopback listener and signs the bench user on.
func serve(hub *core.Hub) (*hubFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fr := &hubFront{hub: hub, server: rest.NewHubServer(hub), done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	fr.srv = rest.NewHTTPServer("", fr.server.Handler())
	fr.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadGoroutines}, Timeout: 30 * time.Second}
	go func() {
		defer close(fr.done)
		fr.srv.Serve(ln) // returns on Close
	}()
	body, _ := json.Marshal(map[string]string{"username": benchUser, "password": benchPassword})
	resp, err := fr.client.Post(fr.url+"/api/auth/login", "application/json", bytes.NewReader(body))
	if err != nil {
		fr.Close()
		return nil, err
	}
	defer resp.Body.Close()
	var lr struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || lr.Token == "" {
		fr.Close()
		return nil, fmt.Errorf("bench: login failed with status %d: %v", resp.StatusCode, err)
	}
	fr.token = lr.Token
	return fr, nil
}

func (fr *hubFront) Close() {
	fr.srv.Close()
	<-fr.done
	fr.client.CloseIdleConnections()
}

// get issues one authenticated chart GET and returns the body.
func (fr *hubFront) get(query string) ([]byte, error) {
	req, err := http.NewRequest("GET", fr.url+"/api/chart?"+query, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+fr.token)
	start := time.Now()
	resp, err := fr.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET %s: status %d: %s", query, resp.StatusCode, bytes.TrimSpace(body))
	}
	fr.mu.Lock()
	fr.tookMS = append(fr.tookMS, ms(took))
	fr.bodyLen = append(fr.bodyLen, float64(len(body)))
	fr.mu.Unlock()
	return body, nil
}

// samples returns the latency and body size of every GET so far.
func (fr *hubFront) samples() (tookMS, bodyLen []float64) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]float64(nil), fr.tookMS...), append([]float64(nil), fr.bodyLen...)
}

// factCount GETs the count chart of a batch kind's realm and sums its
// points.
func (fr *hubFront) factCount(kind string) (float64, error) {
	body, err := fr.get(countChart[kind].query())
	if err != nil {
		return 0, err
	}
	var doc struct {
		Series []struct {
			Points []struct {
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	total := 0.0
	for _, s := range doc.Series {
		for _, p := range s.Points {
			total += p.Value
		}
	}
	return total, nil
}

// federation is one live in-process federation: satellites with WALs,
// senders over loopback TCP through a byte-counting proxy, a hub, and
// the hub's REST server behind an HTTP listener.
type federation struct {
	front   *hubFront
	members []*member
	proxy   *countingProxy
	cancel  context.CancelFunc
}

// startFederation builds the federation in dir. mode is the members'
// replication mode, "facts" or "pushdown".
func startFederation(dir, mode string, specs []memberSpec) (*federation, error) {
	hub, err := newHub()
	if err != nil {
		return nil, err
	}
	hubAddr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	proxy, err := newCountingProxy(hubAddr)
	if err != nil {
		hub.Close()
		return nil, err
	}
	front, err := serve(hub)
	if err != nil {
		proxy.Close()
		hub.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fed := &federation{front: front, proxy: proxy, cancel: cancel}
	for _, spec := range specs {
		if err := hub.Register(spec.name); err != nil {
			fed.Close()
			return nil, err
		}
		cfg := config.InstanceConfig{
			Name: spec.name, Version: core.Version, Resources: spec.resources, AggregationLevels: levels(),
			Hubs: []config.HubRoute{{HubAddr: proxy.Addr(), Mode: "tight", IncludeRealms: spec.realms}},
		}
		if mode == "pushdown" {
			cfg.Replication = config.ReplicationConfig{Mode: "pushdown", PushdownFlushInterval: pushdownFlushInterval}
		}
		sat, err := core.NewSatellite(cfg)
		if err != nil {
			fed.Close()
			return nil, err
		}
		m := &member{spec: spec, sat: sat, path: filepath.Join(dir, spec.name+".wal")}
		m.wal, err = warehouse.OpenLogWriterOpts(sat.DB, m.path, 0, warehouse.WALOptions{Fsync: walFsyncPolicy, FsyncInterval: walFsyncInterval})
		if err != nil {
			fed.Close()
			return nil, err
		}
		fed.members = append(fed.members, m)
		if mode == "pushdown" {
			tick := warehouse.TableDef{Name: tickTable, Columns: []warehouse.Column{{Name: "n", Type: warehouse.TypeInt}}}
			if _, err := sat.DB.EnsureSchema(tickSchema).EnsureTable(tick); err != nil {
				fed.Close()
				return nil, err
			}
		}
		if err := sat.StartFederation(ctx); err != nil {
			fed.Close()
			return nil, err
		}
	}
	return fed, nil
}

func (f *federation) Close() {
	f.cancel()
	for _, m := range f.members {
		m.sat.StopFederation()
		m.wal.Close()
	}
	f.proxy.Close()
	f.front.Close()
	f.front.hub.Close()
}

// onHub returns the hub's record of member i.
func (f *federation) onHub(i int) core.Member {
	for _, hm := range f.front.hub.Members() {
		if hm.Name == f.members[i].spec.name {
			return hm
		}
	}
	return core.Member{}
}

// await polls cond until it holds, and reports when; what names the
// wait in the error after visibleTimeout.
func await(what string, cond func() bool) (time.Time, error) {
	deadline := time.Now().Add(visibleTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("bench: %s after %v", what, visibleTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Now(), nil
}

// awaitCovered waits until the hub's position covers member i's lsn.
func (f *federation) awaitCovered(i int, lsn uint64) (time.Time, error) {
	return await(fmt.Sprintf("member %s: lsn %d not on the hub", f.members[i].spec.name, lsn),
		func() bool { return f.onHub(i).Position >= lsn })
}

// awaitDeltas waits until pushdown member i's deltas cover lsn. A
// sender flushes due deltas only behind a batch it has just shipped or
// on its idle heartbeat, so once the member's binlog stands still its
// last deltas wait for the heartbeat: 5 s by default, and a heartbeat
// short enough not to decide when a backfill ends is shorter than a
// snapshot fold, so that the hub drops the sender as silent over and
// over. The harness leaves the heartbeat alone and keeps the binlog
// moving instead, as a replication heartbeat table does: one row into
// the member's unreplicated tick table every tickInterval until the
// deltas are there. The rows wake the sender, its filter drops them,
// and the frame that carries their position is followed by the flush.
func (f *federation) awaitDeltas(i int, lsn uint64) error {
	m := f.members[i]
	next := time.Now()
	var tickErr error
	_, err := await(fmt.Sprintf("member %s: deltas through lsn %d not on the hub", m.spec.name, lsn), func() bool {
		if tickErr != nil || f.onHub(i).DeltaCovered >= lsn {
			return true
		}
		if now := time.Now(); !now.Before(next) {
			next = now.Add(tickInterval)
			m.ticks++
			tickErr = m.sat.DB.InsertRow(tickSchema, tickTable, []any{m.ticks})
		}
		return false
	})
	if tickErr != nil {
		return tickErr
	}
	return err
}

// awaitVisible waits until the hub's position covers member i's lsn
// and then until one chart GET shows at least want facts in the realm
// of that kind of batch; it reports when each happened and whether the
// hub was dirty just before the GET.
func (f *federation) awaitVisible(i int, lsn uint64, kind string, want int) (covered, at time.Time, dirty bool, err error) {
	if covered, err = f.awaitCovered(i, lsn); err != nil {
		return covered, at, false, err
	}
	dirty = f.front.hub.Status().Dirty
	deadline := time.Now().Add(visibleTimeout)
	for {
		got, err := f.front.factCount(kind)
		if err != nil {
			return covered, at, dirty, err
		}
		if got >= float64(want) {
			return covered, time.Now(), dirty, nil
		}
		if time.Now().After(deadline) {
			return covered, at, dirty, fmt.Errorf("bench: %s chart shows %v facts, want %d", countChart[kind].realm, got, want)
		}
		// Position covered but chart behind: a pushdown member's deltas
		// are still to be flushed. Do not hammer the hub meanwhile.
		time.Sleep(time.Millisecond)
	}
}

// preload ingests whole feeds into their members and waits for the
// hub to cover them. It is part of set-up, not of the timed section.
func (f *federation) preload(feeds []*feed) (facts int, err error) {
	for _, fd := range feeds {
		for {
			b, ok, err := fd.next()
			if err != nil {
				return facts, err
			}
			if !ok {
				break
			}
			records, rejected, err := ingestBatch(f.members[b.member].sat.Pipeline, b)
			if err != nil || rejected > 0 {
				return facts, fmt.Errorf("bench: preload of %s rejected %d records: %v", f.members[b.member].spec.name, rejected, err)
			}
			facts += records
		}
	}
	for i, m := range f.members {
		if _, err := f.awaitCovered(i, m.sat.DB.Binlog().Last()); err != nil {
			return facts, err
		}
		// A pushdown member's bins trail its position by a flush; set-up
		// ends with them applied, not at whatever phase the flush is in.
		if f.onHub(i).Mode == "pushdown" {
			if err := f.awaitDeltas(i, lastFactInsert(m.sat, 0)); err != nil {
				return facts, err
			}
		}
	}
	return facts, f.front.hub.EnsureAggregated()
}

// countingProxy forwards TCP connections to target and counts every
// byte in both directions: the wire between the senders and the hub.
type countingProxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	conns  atomic.Int64
	wg     sync.WaitGroup

	mu   sync.Mutex
	open map[net.Conn]struct{}
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target, open: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) Addr() string { return p.ln.Addr().String() }

// Bytes is the total forwarded so far; Conns counts accepted
// connections (more than one per sender means it reconnected).
func (p *countingProxy) Bytes() int64 { return p.bytes.Load() }
func (p *countingProxy) Conns() int64 { return p.conns.Load() }

func (p *countingProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open == nil {
		return false
	}
	p.open[c] = struct{}{}
	return true
}

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil || !p.track(in) || !p.track(out) {
			in.Close()
			if out != nil {
				out.Close()
			}
			continue
		}
		p.conns.Add(1)
		p.wg.Add(2)
		pipe := func(dst, src net.Conn) {
			defer p.wg.Done()
			io.Copy(countingWriter{dst, &p.bytes}, src)
			// Either side ending ends the connection for both.
			dst.Close()
			src.Close()
		}
		go pipe(out, in)
		go pipe(in, out)
	}
}

func (p *countingProxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.open {
		c.Close()
	}
	p.open = nil
	p.mu.Unlock()
	p.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}
