package core

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/faults"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/warehouse"
)

// Member is one satellite instance registered with a hub.
type Member struct {
	Name      string
	JoinedAt  time.Time
	Position  uint64    // last committed binlog LSN
	LastBatch time.Time // wall time the last batch (or loose dump) landed
	LastEvent time.Time // origin timestamp of the newest applied event
	Batches   int
	Events    int

	// Replication mode: "" until the member first replicates, then
	// "facts", "pushdown" (aggregation pushdown granted) or "loose".
	Mode string
	// Pushdown bookkeeping: applied delta frames, the bins they
	// carried, the binlog position the newest delta covers, and when
	// the last one landed.
	Deltas       int
	DeltaRows    int
	DeltaCovered uint64
	LastDelta    time.Time

	// pushFacts is the set of realm fact tables the member's current
	// pushdown grant covers; fact inserts on these tables are never
	// folded incrementally (the pagg tables are the realm's source).
	// Replaced wholesale at each negotiation, under Hub.mu.
	pushFacts map[string]bool

	// Failures counts consecutive apply failures and LastError holds the
	// newest one, for operators; one applied batch clears both. A failed
	// batch is refused to its sender, whose backoff paces the retries.
	Failures  int
	LastError string
}

// Hub is a federation hub: an XDMoD instance of its own (it has a
// warehouse, aggregation engine and authenticator like any other) plus
// the federation machinery — a replication receiver, the per-instance
// commit-position store, the member registry, and the identity map.
type Hub struct {
	*Instance
	Positions *replicate.PositionStore
	Identity  *auth.IdentityMap

	// Faults, when set before Listen, injects connection faults on
	// every replication conn the hub accepts (chaos tests only).
	Faults *faults.Registry

	receiver  *replicate.Receiver
	heartbeat time.Duration

	// mu guards members. Realm mutexes (aggregate.Engine) come before
	// it: realmSources reads the members with a realm mutex held.
	mu      sync.Mutex
	members map[string]*Member

	// factRealms maps a realm fact table name to its realm, so the
	// apply path can classify replicated events per realm.
	factRealms map[string]realm.Info
}

// NewHub builds a federation hub from its configuration.
func NewHub(cfg config.InstanceConfig) (*Hub, error) {
	in, err := newInstance(cfg, true)
	if err != nil {
		return nil, err
	}
	ps, err := replicate.NewPositionStore(in.DB)
	if err != nil {
		return nil, err
	}
	hb, err := cfg.Replication.HeartbeatDuration()
	if err != nil {
		return nil, err
	}
	h := &Hub{
		Instance:   in,
		Positions:  ps,
		Identity:   auth.NewIdentityMap(),
		members:    make(map[string]*Member),
		factRealms: make(map[string]realm.Info),
		heartbeat:  hb,
	}
	for _, info := range realms {
		h.factRealms[info.FactTable] = info
	}
	// A hub-local write then recomputes over exactly what a rebuild
	// reads.
	in.Engine.Sources = h.realmSources
	return h, nil
}

// Register adds a satellite to the federation's membership. Only
// registered instances may replicate in (the hub's Authorize hook).
func (h *Hub) Register(instance string) error {
	if instance == "" {
		return fmt.Errorf("core: member name must not be empty")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.members[instance]; ok {
		return fmt.Errorf("core: instance %q is already a federation member", instance)
	}
	h.members[instance] = &Member{Name: instance, JoinedAt: time.Now()}
	mHubMembers.Set(float64(len(h.members)))
	coreLog.Info("member registered", "federation", h.Config.Name, "instance", instance)
	return nil
}

// Members returns the registered members, sorted by name.
func (h *Hub) Members() []Member {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Member, 0, len(h.members))
	for _, m := range h.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// authorize vets a connecting instance: only registered members may
// replicate in.
func (h *Hub) authorize(instance string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.members[instance]; !ok {
		return fmt.Errorf("core: instance %q is not a registered member of federation %q", instance, h.Config.Name)
	}
	return nil
}

// Resume implements replicate.Sink.
func (h *Hub) Resume(instance string) (uint64, error) {
	return h.Positions.Get(instance), nil
}

// NegotiatePushdown implements replicate.PushdownSink: it vets a
// connecting member's aggregation-pushdown offer. A grant requires the
// satellite's aggregation levels to match the hub's exactly (bins
// rendered with different levels would not merge meaningfully) and
// every offered realm to be mergeable; a miss on either declines
// softly and the connection replicates raw facts. The reverse switch
// is guarded hard: a member that previously pushed partial aggregates
// (its schema holds pagg tables) may not silently reconnect in facts
// mode — the stale hub-side bins would keep feeding rebuilds — so the
// handshake is rejected until the operator resyncs the member.
func (h *Hub) NegotiatePushdown(instance string, req replicate.PushdownRequest) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.members[instance]
	if !ok {
		return fmt.Errorf("core: instance %q is not a registered member", instance)
	}
	schema := replicate.HubSchema(instance)
	if !req.Enabled {
		for _, name := range h.Registry.Names() {
			info, _ := h.Registry.Get(name)
			if h.Engine.HasPagg(info, schema) {
				return fmt.Errorf(
					"core: member %q previously replicated realm %q as partial aggregates; reconnecting in facts mode requires a resync (drop schema %s first)",
					instance, name, schema)
			}
		}
		m.Mode = "facts"
		m.pushFacts = nil
		return nil
	}
	if hd := h.Engine.LevelsDigest(); req.LevelsDigest != hd {
		return fmt.Errorf("%w: aggregation levels differ (hub %s, satellite %s)",
			replicate.ErrPushdownDeclined, hd, req.LevelsDigest)
	}
	facts := make(map[string]bool, len(req.Realms))
	for _, name := range req.Realms {
		info, ok := h.Registry.Get(name)
		if !ok {
			return fmt.Errorf("%w: hub has no realm %q", replicate.ErrPushdownDeclined, name)
		}
		if err := aggregate.MergeableRealm(info); err != nil {
			return fmt.Errorf("%w: %v", replicate.ErrPushdownDeclined, err)
		}
		facts[info.FactTable] = true
	}
	// The mode-switch guard applies per realm: pagg residue for a realm
	// missing from the new grant would keep feeding rebuilds stale bins.
	for _, name := range h.Registry.Names() {
		info, _ := h.Registry.Get(name)
		if !facts[info.FactTable] && h.Engine.HasPagg(info, schema) {
			return fmt.Errorf(
				"core: member %q previously replicated realm %q as partial aggregates; dropping it from the pushdown grant requires a resync (drop schema %s first)",
				instance, name, schema)
		}
	}
	m.Mode = "pushdown"
	m.pushFacts = facts
	coreLog.Info("aggregation pushdown granted",
		"federation", h.Config.Name, "instance", instance, "realms", req.Realms)
	return nil
}

// pushdownFactsFor returns the member's granted pushdown fact tables
// (nil when none). The map is replaced wholesale at negotiation and
// never mutated, so reading it without the lock afterwards is safe.
func (h *Hub) pushdownFactsFor(instance string) map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.members[instance]; ok {
		return m.pushFacts
	}
	return nil
}

// ApplyDeltas implements replicate.PushdownSink: a granted member's
// partial-aggregate deltas land in its pagg tables (the durable,
// idempotent bin store) through aggregate.Engine.ApplyDelta, which
// marks the realm stale for a rebuild that reads them.
func (h *Hub) ApplyDeltas(ctx context.Context, instance string, upTo uint64, deltas []aggregate.Delta) error {
	sctx, sp := obs.StartSpan(ctx, "hub.ApplyDeltas")
	sp.SetAttr("instance", instance)
	defer sp.End()
	schema := replicate.HubSchema(instance)
	granted := h.pushdownFactsFor(instance)
	rows := 0
	var covered uint64
	for _, d := range deltas {
		info, ok := h.Registry.Get(d.Realm)
		if !ok {
			return fmt.Errorf("core: hub has no realm %q", d.Realm)
		}
		if !granted[info.FactTable] {
			return fmt.Errorf("core: realm %q is not pushdown-granted for member %q", d.Realm, instance)
		}
		_, dsp := obs.StartSpan(sctx, "hub.ApplyDelta")
		dsp.SetAttr("realm", d.Realm)
		n, err := h.Engine.ApplyDelta(info, schema, d)
		dsp.End()
		if err != nil {
			coreLog.Error("pushdown delta apply failed",
				"instance", instance, "realm", d.Realm, "err", err)
			h.noteApplyFailure(instance, err)
			return err
		}
		rows += n
		if d.CoveredLSN > covered {
			covered = d.CoveredLSN
		}
	}
	h.mu.Lock()
	if m, ok := h.members[instance]; ok {
		m.Deltas += len(deltas)
		m.DeltaRows += rows
		if covered > m.DeltaCovered {
			m.DeltaCovered = covered
		}
		now := time.Now()
		m.LastDelta = now
		m.LastBatch = now
	}
	h.mu.Unlock()
	return nil
}

// ApplyBatch is ApplyBatchCtx with no trace context, for callers that
// apply batches in process.
func (h *Hub) ApplyBatch(instance string, upTo uint64, events []warehouse.Event) error {
	return h.ApplyBatchCtx(context.Background(), instance, upTo, events)
}

// ApplyBatchCtx implements replicate.Sink: events land verbatim in the
// instance's fed_<name> schema ("the federation hub does not alter the
// raw, replicated data from the individual instances", §II-B) and
// each touched realm's aggregates follow them (aggregate.Engine.Write):
// inserts fold straight in, so the first chart query after a batch
// pays O(batch) instead of O(all facts), updates and deletes recompute
// the groups they touched, and truncates and bulk loads mark just their
// realm stale for rebuild — also for the prefix of a batch that fails
// part-way. Usernames feed the identity map before the batch's facts
// become visible; then the commit position advances durably. When ctx
// carries the replication frame's trace context, the apply span joins
// the satellite's trace, so one TraceID covers the ingest commit, the
// replication send and the hub apply across both processes.
func (h *Hub) ApplyBatchCtx(ctx context.Context, instance string, upTo uint64, events []warehouse.Event) error {
	_, sp := obs.StartSpan(ctx, "hub.ApplyBatch")
	sp.SetAttr("instance", instance)
	defer sp.End()
	return h.apply(instance, events, upTo, false)
}

// apply is the hub's one apply step for a member's events, a tight
// batch and a loose dump alike: the events and the identities they
// carry as one write transaction through aggregate.Engine.Write over the
// realms whose fact tables they touch, which refreshes those realms'
// aggregates from the transaction's record before it returns (also for
// the prefix that applied when the batch fails part-way); then the
// member's bookkeeping. A tight batch (loose false) moves the member's
// commit position to upTo, or, when it fails part-way, to the last event
// it applied, so the sender's retry starts at the failing event. A loose
// dump never moves it; it sets the member's mode to "loose" and dates
// the member by the newest fact it carries.
func (h *Hub) apply(instance string, events []warehouse.Event, upTo uint64, loose bool) error {
	defer mHubBatchSeconds.ObserveSince(time.Now())
	// A pushdown-granted realm's bins arrive as deltas and live in the
	// pagg tables; a stray raw fact event of it lands verbatim but is
	// never folded on top.
	pushFacts := h.pushdownFactsFor(instance)
	var names []string
	for _, ev := range events {
		if info, ok := h.factRealms[ev.Table]; ok && !pushFacts[ev.Table] && !slices.Contains(names, info.Name) {
			names = append(names, info.Name)
		}
	}
	// The whole batch lands as one write transaction: one lock
	// acquisition and one columnar-snapshot publish per touched table.
	// On failure the applied prefix stays applied. Identities are
	// observed inside the transaction, over exactly the applied prefix,
	// so no reader sees a fact whose user Identity cannot yet resolve.
	applied := 0
	_, err := h.Engine.Write(names, func() (err error) {
		applied, err = h.DB.Apply(events)
		for _, ev := range events[:applied] {
			h.observeIdentity(instance, ev)
		}
		return err
	})
	if err != nil {
		lsn := uint64(0)
		if applied < len(events) {
			lsn = events[applied].LSN
		}
		coreLog.Error("apply batch failed", "instance", instance, "lsn", lsn, "err", err)
		if !loose && applied > 0 {
			h.advanceTo(instance, events[applied-1].LSN)
		}
		h.noteApplyFailure(instance, err)
		return err
	}
	if !loose {
		if err := h.Positions.Set(instance, upTo); err != nil {
			return err
		}
		mMemberPosition.With(instance).Set(float64(upTo))
	}
	mHubApplied.With(instance).Add(uint64(len(events)))

	h.mu.Lock()
	if m, ok := h.members[instance]; ok {
		m.LastBatch = time.Now()
		m.Batches++
		if loose {
			m.Mode = "loose"
			// LastEvent reflects data age, not load time: /healthz member
			// freshness must expose a member shipping week-old dumps.
			if t := h.newestLoadedFact(events); !t.IsZero() {
				m.LastEvent = t
			}
		} else {
			m.Position = upTo
			m.Events += len(events)
			if n := len(events); n > 0 {
				if t := events[n-1].Time; !t.IsZero() {
					m.LastEvent = t
				} else {
					m.LastEvent = time.Now()
				}
			}
		}
		m.Failures = 0
		m.LastError = ""
	}
	h.mu.Unlock()
	// No explicit epoch bump: every commit above (raw apply, fold and
	// recompute installs) bumped its own schema's epoch, so once
	// ApplyBatch returns no chart query can serve a result computed
	// against the pre-batch view of the schemas this batch touched —
	// while cached charts of untouched realms stay valid.
	return nil
}

// advanceTo moves a member's commit position forward to lsn, the last
// event of a failed batch that applied: its retry then starts at the
// event that failed, not at events the hub already holds. A position
// never moves back.
func (h *Hub) advanceTo(instance string, lsn uint64) {
	if lsn <= h.Positions.Get(instance) {
		return
	}
	if err := h.Positions.Set(instance, lsn); err != nil {
		coreLog.Error("member position not advanced", "instance", instance, "lsn", lsn, "err", err)
		return
	}
	mMemberPosition.With(instance).Set(float64(lsn))
	h.mu.Lock()
	if m, ok := h.members[instance]; ok {
		m.Position = lsn
	}
	h.mu.Unlock()
}

// noteApplyFailure records one failed apply on the member, for
// operators (Members, /healthz, /api/federation/status).
func (h *Hub) noteApplyFailure(instance string, cause error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.members[instance]; ok {
		m.Failures++
		m.LastError = cause.Error()
	}
}

// observeIdentity feeds job-fact usernames into the identity map so
// the same human on different instances can be linked (§II-D4). The
// username offset is resolved from the replicated table's definition —
// never hardcoded — so a fact-table column reorder cannot silently
// poison the identity map. It runs inside apply's write transaction, so
// it resolves the table through the lock-free catalog (DataFor), which
// already holds a table the batch created.
func (h *Hub) observeIdentity(instance string, ev warehouse.Event) {
	if ev.Table != jobs.FactTable {
		return
	}
	switch ev.Kind {
	case warehouse.EvInsert:
		data, err := h.DB.DataFor(ev.Schema, ev.Table)
		if err != nil {
			return
		}
		i, ok := data.ColIndex(jobs.ColUser)
		if !ok || i >= len(ev.Row) {
			return
		}
		if username, ok := ev.Row[i].(string); ok && username != "" {
			h.Identity.Observe(auth.InstanceUser{Instance: instance, Username: username}, "", "")
		}
	case warehouse.EvLoad:
		// Bulk loads (backup restores, re-ships) carry the usernames in
		// the columnar payload; the column is located by name there.
		if ev.Cols == nil {
			return
		}
		for i, name := range ev.Cols.Names {
			if name != jobs.ColUser {
				continue
			}
			// Each username is observed once, when its first cell comes.
			users := ev.Cols.Cols[i].Strings()
			seen := make([]bool, len(users.Dict))
			for _, c := range users.Codes {
				if username := users.Dict[c]; username != "" && !seen[c] {
					seen[c] = true
					h.Identity.Observe(auth.InstanceUser{Instance: instance, Username: username}, "", "")
				}
			}
			return
		}
	}
}

// Listen starts the hub's tight-replication receiver; returns the
// bound address.
func (h *Hub) Listen(addr string) (string, error) {
	h.receiver = &replicate.Receiver{
		Version:           h.Config.Version,
		Sink:              h,
		Authorize:         h.authorize,
		HeartbeatInterval: h.heartbeat,
		Faults:            h.Faults,
	}
	return h.receiver.Listen(addr)
}

// Close stops the receiver.
func (h *Hub) Close() {
	if h.receiver != nil {
		h.receiver.Close()
	}
}

// LoadLooseDump batch-loads a loose-federation dump from a registered
// member ("loose federation", §II-C2). A heterogeneous federation can
// mix tight and loose members freely. The dump is read whole and passed
// through the rewriter a route would use with every realm's federated
// tables included (realm.Info.Federated): whether it is a route's dump
// or the member's whole warehouse, only those tables land, in the
// member's fed_<instance> schema however the dump names its schemas —
// never the member's aggregation tables or a local realm's facts. Then
// it takes the step a tight batch takes (apply). A dump that does not
// read touches nothing. A loose load
// replaces whole tables (periodic re-ships supersede earlier ones),
// which the additive fold cannot express, so Engine.Write marks each
// realm whose fact table it loads stale for rebuild — also when the
// load fails partway, since the tables replaced before the failure stay
// replaced, and such a failure counts in the member's Failures.
func (h *Hub) LoadLooseDump(instance string, r io.Reader) error {
	if err := h.authorize(instance); err != nil {
		return err
	}
	_, evs, err := warehouse.ReadSnapshot(r)
	if err != nil {
		return err
	}
	include := map[string]bool{}
	for _, info := range realms {
		for _, t := range info.Federated() {
			include[t] = true
		}
	}
	evs, _ = replicate.NewRewriter(instance, replicate.Filter{IncludeTables: include}).ProcessBatch(evs)
	return h.apply(instance, evs, 0, true)
}

// newestLoadedFact returns the newest time that the LOAD events of evs
// carry in their realm's time column (zero when none does).
func (h *Hub) newestLoadedFact(evs []warehouse.Event) time.Time {
	var newest time.Time
	for _, ev := range evs {
		info, ok := h.factRealms[ev.Table]
		if !ok || ev.Kind != warehouse.EvLoad {
			continue
		}
		for i, name := range ev.Cols.Names {
			if name != info.TimeColumn {
				continue
			}
			times, nulls := ev.Cols.Cols[i].Times(), ev.Cols.Cols[i].Nulls
			for pos := range times.Nanos {
				if t := times.At(pos); (nulls == nil || !nulls[pos]) && t.After(newest) {
					newest = t
				}
			}
		}
	}
	return newest
}

// realmSources returns one realm's rebuild sources: the hub's own
// schema (facts) plus, per member in name order, either the member's
// pagg tables (pushdown — the hub never holds those raw facts) or its
// replicated fact table when present. Pagg presence wins: it is the
// durable record that the member replicates in pushdown mode.
func (h *Hub) realmSources(info realm.Info) []aggregate.Source {
	sources := []aggregate.Source{{Schema: info.Schema}} // hub's own monitored resources, if any
	for _, m := range h.Members() {
		schemaName := replicate.HubSchema(m.Name)
		if h.Engine.HasPagg(info, schemaName) {
			sources = append(sources, aggregate.Source{Schema: schemaName, Pushdown: true})
		} else if s := h.DB.Schema(schemaName); s != nil && s.Table(info.FactTable) != nil {
			sources = append(sources, aggregate.Source{Schema: schemaName})
		}
	}
	return sources
}

// AggregateFederation rebuilds the hub's aggregation tables for every
// realm from all replicated member data plus any data the hub monitors
// directly, using the hub's own aggregation levels ("all raw instance
// data are fully replicated to the master, then aggregated there,
// according to the federation hub's aggregation levels, so no data are
// lost or changed", §II-C3). This is the config-change / admin path;
// routine reads use EnsureAggregated, which rebuilds only stale
// realms. Returns fact rows aggregated per realm.
func (h *Hub) AggregateFederation() (map[string]int, error) {
	_, sp := obs.StartSpan(context.Background(), "hub.AggregateFederation")
	defer sp.End()
	defer mAggSeconds.ObserveSince(time.Now())
	return h.Engine.RebuildAll()
}

// Query answers a chart query over the federation's unified view,
// re-aggregating any stale realm first ("the federation hub can then
// provide an integrated view of job and performance data collected
// from entirely independent XDMoD instances", §II-A).
func (h *Hub) Query(realmName string, req aggregate.Request) ([]aggregate.Series, error) {
	if err := h.EnsureAggregated(); err != nil {
		return nil, err
	}
	return h.Instance.Query(realmName, req)
}

// RegenerateSatellite writes a backup of one member's replicated raw
// data, suitable for Satellite.RestoreFromHubBackup — the paper's
// federation-as-backup use case (§II-E4).
func (h *Hub) RegenerateSatellite(instance string, w io.Writer) error {
	schemaName := replicate.HubSchema(instance)
	if h.DB.Schema(schemaName) == nil {
		return fmt.Errorf("core: no replicated data for instance %q", instance)
	}
	lsn, evs := h.DB.SnapshotEvents([]string{schemaName})
	return warehouse.WriteSnapshot(w, h.Config.Name, lsn, evs)
}

// Status summarizes the federation for monitoring and the REST API.
type Status struct {
	Hub         string
	Version     string
	Members     []Member
	Dirty       bool     // any realm pending rebuild (stale, aggregate.Engine.Stale)
	DirtyRealms []string // realms pending rebuild, sorted
}

// Status returns the hub's federation status.
func (h *Hub) Status() Status {
	dr := h.Engine.Stale()
	return Status{
		Hub:         h.Config.Name,
		Version:     h.Config.Version,
		Members:     h.Members(),
		Dirty:       len(dr) > 0,
		DirtyRealms: dr,
	}
}
