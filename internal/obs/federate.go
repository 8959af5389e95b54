package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Telemetry federation: the hub applies the paper's federation pattern
// to the monitoring data itself. A Federator periodically scrapes each
// member's /metrics and /healthz, parses the Prometheus text format
// this package renders, and re-exports the member series on the hub's
// own /metrics with a `member` label (family names rewritten
// xdmodfed_* → xdmodfed_member_* so they can never collide with the
// hub's own families). A JSON rollup — per-member up/down, scrape
// latency, staleness, health status and gauge values — is served at
// GET /api/federation/telemetry.
//
// Failure handling mirrors the replication quarantine circuit
// breaker: after fedFailThreshold consecutive scrape failures a member
// is backed off with exponential growth (capped), so a long-dead
// member costs one cheap check per backoff window instead of a timeout
// per tick.

// Federator scrape defaults.
const (
	DefaultScrapeInterval = 15 * time.Second
	DefaultScrapeTimeout  = 5 * time.Second
	fedFailThreshold      = 3
	fedMaxBackoffTicks    = 16 // backoff cap, in scrape intervals

	// maxScrapeBytes bounds one member /metrics or /healthz body. The
	// bytes come from another site, so a runaway or hostile member must
	// not make the hub buffer and parse without limit until the scrape
	// times out; a /metrics body over the cap fails the scrape.
	maxScrapeBytes = 4 << 20
)

var (
	mFedScrapes = Default.CounterVec("xdmodfed_federation_scrapes_total",
		"Telemetry scrapes of federation members, by member and outcome.",
		"member", "outcome")
	mFedUp = Default.GaugeVec("xdmodfed_federation_scrape_up",
		"Whether the last telemetry scrape of the member succeeded (1) or failed (0).",
		"member")
	mFedScrapeSeconds = Default.HistogramVec("xdmodfed_federation_scrape_seconds",
		"Telemetry scrape latency, by member.", nil, "member")
	mFedLastSuccess = Default.GaugeVec("xdmodfed_federation_last_success_timestamp_seconds",
		"Unix time of the member's last successful telemetry scrape.",
		"member")

	fedLog = Logger("obs.federate")
)

// MemberTarget names one member instance and its REST base address
// ("host:port" or a full URL).
type MemberTarget struct {
	Name string
	Addr string
}

// fedMember is the scrape state of one target.
type fedMember struct {
	name string
	addr string

	up           bool
	lastAttempt  time.Time
	lastSuccess  time.Time
	latency      time.Duration
	lastErr      string
	fails        int // consecutive failures
	backoffUntil time.Time

	health   string // member /healthz status field ("" when unavailable)
	families []ParsedFamily
}

// Federator scrapes member telemetry and re-exports it on the hub.
type Federator struct {
	interval time.Duration
	timeout  time.Duration
	client   *http.Client

	mu      sync.Mutex
	members map[string]*fedMember
	order   []string
}

// NewFederator builds a federator over the given targets. Zero
// interval/timeout use the defaults. More targets can be added later
// with AddTarget (e.g. as members register).
func NewFederator(targets []MemberTarget, interval, timeout time.Duration) *Federator {
	if interval <= 0 {
		interval = DefaultScrapeInterval
	}
	if timeout <= 0 {
		timeout = DefaultScrapeTimeout
	}
	f := &Federator{
		interval: interval,
		timeout:  timeout,
		client:   &http.Client{Timeout: timeout},
		members:  make(map[string]*fedMember),
	}
	for _, t := range targets {
		f.AddTarget(t.Name, t.Addr)
	}
	return f
}

// AddTarget registers (or re-addresses) one member scrape target.
func (f *Federator) AddTarget(name, addr string) {
	if name == "" || addr == "" {
		return
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	addr = strings.TrimRight(addr, "/")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.members[name]; ok {
		m.addr = addr
		return
	}
	f.members[name] = &fedMember{name: name, addr: addr}
	f.order = append(f.order, name)
	sort.Strings(f.order)
}

// Targets returns how many members are being scraped.
func (f *Federator) Targets() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Interval returns the configured scrape interval.
func (f *Federator) Interval() time.Duration { return f.interval }

// Run scrapes all targets immediately and then on every interval tick
// until ctx is cancelled. Backed-off members are skipped until their
// backoff expires.
func (f *Federator) Run(ctx context.Context) {
	f.scrapeAll(ctx)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.scrapeAll(ctx)
		}
	}
}

// scrapeAll scrapes due members concurrently; one slow member cannot
// delay the others past the HTTP timeout.
func (f *Federator) scrapeAll(ctx context.Context) {
	f.mu.Lock()
	now := time.Now()
	var due []*fedMember
	for _, name := range f.order {
		m := f.members[name]
		if now.Before(m.backoffUntil) {
			continue
		}
		due = append(due, m)
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range due {
		wg.Add(1)
		go func(m *fedMember) {
			defer wg.Done()
			f.scrapeMember(ctx, m)
		}(m)
	}
	wg.Wait()
}

// scrapeMember fetches one member's /metrics and /healthz and updates
// its state and the federator's own meta-metrics.
func (f *Federator) scrapeMember(ctx context.Context, m *fedMember) {
	f.mu.Lock()
	addr := m.addr
	f.mu.Unlock()

	start := time.Now()
	families, err := f.fetchMetrics(ctx, addr)
	latency := time.Since(start)
	health := ""
	if err == nil {
		health = f.fetchHealth(ctx, addr) // best-effort; "" when unavailable
	}

	f.mu.Lock()
	m.lastAttempt = start
	m.latency = latency
	if err != nil {
		m.up = false
		m.lastErr = err.Error()
		m.fails++
		if m.fails >= fedFailThreshold {
			ticks := 1 << uint(m.fails-fedFailThreshold)
			if ticks > fedMaxBackoffTicks {
				ticks = fedMaxBackoffTicks
			}
			m.backoffUntil = time.Now().Add(time.Duration(ticks) * f.interval)
		}
		f.mu.Unlock()
		mFedScrapes.With(m.name, "error").Inc()
		mFedUp.With(m.name).Set(0)
		fedLog.Warn("member telemetry scrape failed",
			"member", m.name, "addr", addr, "consecutive", m.fails, "err", err)
		return
	}
	m.up = true
	m.lastErr = ""
	m.fails = 0
	m.backoffUntil = time.Time{}
	m.lastSuccess = start
	m.health = health
	m.families = families
	f.mu.Unlock()
	mFedScrapes.With(m.name, "ok").Inc()
	mFedUp.With(m.name).Set(1)
	mFedScrapeSeconds.With(m.name).Observe(latency.Seconds())
	mFedLastSuccess.With(m.name).Set(float64(start.Unix()))
}

func (f *Federator) fetchMetrics(ctx context.Context, addr string) ([]ParsedFamily, error) {
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: member /metrics returned status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScrapeBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxScrapeBytes {
		return nil, fmt.Errorf("obs: member /metrics body exceeds %d bytes", maxScrapeBytes)
	}
	return ParseExposition(bytes.NewReader(body))
}

func (f *Federator) fetchHealth(ctx context.Context, addr string) string {
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return ""
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBytes)).Decode(&doc); err != nil {
		return ""
	}
	return doc.Status
}

// memberFamilyName rewrites a member family (or sample) name for
// re-export: xdmodfed_* becomes xdmodfed_member_*, anything else gains
// the xdmodfed_member_ prefix. Distinct names stay distinct, and a
// re-exported family can never collide with one of the hub's own.
func memberFamilyName(name string) string {
	return "xdmodfed_member_" + strings.TrimPrefix(name, "xdmodfed_")
}

// Render writes every member's scraped series in exposition format
// with names rewritten and a member label prepended. Families present
// on several members merge under one HELP/TYPE announcement. The hub's
// /metrics appends this after the hub's own registry.
func (f *Federator) Render(w io.Writer) error {
	f.mu.Lock()
	type entry struct {
		member  string
		samples []ParsedSample
	}
	type mergedFamily struct {
		help    string
		typ     string
		entries []entry
	}
	merged := map[string]*mergedFamily{}
	var names []string
	for _, name := range f.order {
		m := f.members[name]
		if !m.up {
			continue
		}
		for _, fam := range m.families {
			rewritten := memberFamilyName(fam.Name)
			mf := merged[rewritten]
			if mf == nil {
				mf = &mergedFamily{help: fam.Help, typ: fam.Type}
				merged[rewritten] = mf
				names = append(names, rewritten)
			}
			mf.entries = append(mf.entries, entry{member: m.name, samples: fam.Samples})
		}
	}
	f.mu.Unlock()

	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		mf := merged[name]
		help := mf.help
		if help == "" {
			help = "Scraped from a federation member."
		}
		typ := mf.typ
		if typ == "" {
			typ = "untyped"
		}
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(help))
		b.WriteString("\n# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(typ)
		b.WriteByte('\n')
		for _, e := range mf.entries {
			for _, s := range e.samples {
				b.WriteString(memberFamilyName(s.Name))
				b.WriteString(`{member="`)
				b.WriteString(escapeLabel(e.member))
				b.WriteByte('"')
				for _, l := range s.Labels {
					b.WriteByte(',')
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteString("} ")
				b.WriteString(formatFloat(s.Value))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MemberTelemetry is the JSON rollup of one member's telemetry state,
// served at GET /api/federation/telemetry.
type MemberTelemetry struct {
	Name                string             `json:"name"`
	Addr                string             `json:"addr"`
	Up                  bool               `json:"up"`
	Health              string             `json:"health,omitempty"` // member /healthz status
	LastScrape          time.Time          `json:"last_scrape"`
	LastSuccess         time.Time          `json:"last_success"`
	ScrapeMS            float64            `json:"scrape_ms"`
	StalenessSeconds    float64            `json:"staleness_seconds"` // since last success; -1 = never
	ConsecutiveFailures int                `json:"consecutive_failures,omitempty"`
	BackoffSecondsLeft  float64            `json:"backoff_seconds_left,omitempty"`
	LastError           string             `json:"last_error,omitempty"`
	Series              int                `json:"series"` // scraped sample count
	Gauges              map[string]float64 `json:"gauges,omitempty"`
}

// Snapshot returns the rollup for every member, sorted by name.
func (f *Federator) Snapshot() []MemberTelemetry {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]MemberTelemetry, 0, len(f.order))
	for _, name := range f.order {
		m := f.members[name]
		mt := MemberTelemetry{
			Name:                m.name,
			Addr:                m.addr,
			Up:                  m.up,
			Health:              m.health,
			LastScrape:          m.lastAttempt,
			LastSuccess:         m.lastSuccess,
			ScrapeMS:            float64(m.latency) / float64(time.Millisecond),
			StalenessSeconds:    -1,
			ConsecutiveFailures: m.fails,
			LastError:           m.lastErr,
		}
		if !m.lastSuccess.IsZero() {
			mt.StalenessSeconds = now.Sub(m.lastSuccess).Seconds()
		}
		if now.Before(m.backoffUntil) {
			mt.BackoffSecondsLeft = m.backoffUntil.Sub(now).Seconds()
		}
		for _, fam := range m.families {
			mt.Series += len(fam.Samples)
			if fam.Type != "gauge" {
				continue
			}
			if mt.Gauges == nil {
				mt.Gauges = make(map[string]float64)
			}
			for _, s := range fam.Samples {
				mt.Gauges[gaugeKey(s)] = s.Value
			}
		}
		out = append(out, mt)
	}
	return out
}

// gaugeKey renders a gauge sample's identity (name plus labels) as one
// JSON map key.
func gaugeKey(s ParsedSample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
