// Package core implements the XDMoD Federation module, the paper's
// central contribution (§II): satellite XDMoD instances replicate
// their raw realm data to a central federation hub, which aggregates
// it under its own configuration and serves "a combined, master view
// of job and performance data collected from individual XDMoD
// instances". Satellites retain full local functionality and control;
// the hub never alters replicated raw data.
package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/appkernel"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/hierarchy"
	"xdmodfed/internal/ingest"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/perf"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
)

// Version is the XDMoD software version of this build. The federation
// handshake requires hub and satellites to match ("each individual
// XDMoD instance must run the same version of XDMoD", paper §II-A).
// It changes whenever the replication wire format does — 8.1.0 carries
// a frame's events in the binary event codec where 8.0.0 carried them
// as gob. What the handshake compares is each instance's config string,
// which xdmod-setup fills from here; the check that does not depend on
// a config file being edited is replicate's compiled-in wireFormat.
const Version = "8.1.0-fed"

// realms is every realm an instance serves, in setup order: the one
// list of them. Each realm package declares its whole realm in its
// RealmInfo — tables, fact table, metrics, dimensions, and whether its
// facts stay home — and newInstance sets up, registers and aggregates
// exactly these.
var realms = []realm.Info{jobs.RealmInfo(), cloud.RealmInfo(), storage.RealmInfo(), perf.RealmInfo(), alloc.RealmInfo(), gateway.RealmInfo()}

// FederatedTablesFor returns the tables of the named realm that
// replicate to a hub (realm.Info.Federated: its fact table, unless the
// realm is local), or nil for a local or unknown realm.
func FederatedTablesFor(realmName string) []string {
	for _, info := range realms {
		if info.Name == realmName {
			return info.Federated()
		}
	}
	return nil
}

// Instance is a fully assembled XDMoD installation: warehouse, realms,
// aggregation engine, ingestion pipeline, SU converter, and
// authentication. Both satellites and the hub embed one.
type Instance struct {
	Config     config.InstanceConfig
	DB         *warehouse.DB
	Engine     *aggregate.Engine
	Pipeline   *ingest.Pipeline
	Auth       *auth.Authenticator
	Registry   *realm.Registry
	Converter  *su.Converter
	AppKernels *appkernel.Monitor   // QoS module (paper §I-E)
	Hierarchy  *hierarchy.Hierarchy // institutional hierarchy, nil when unconfigured
}

// NewInstance builds an instance from its configuration: every realm
// of the realm list is set up, resources register their SU conversion
// factors, aggregation levels come from the config (instances "may be
// configured to aggregate their data differently", §II-C3), and SSO
// sources are installed. Its warehouse keeps a binlog, as a
// satellite's does.
func NewInstance(cfg config.InstanceConfig) (*Instance, error) { return newInstance(cfg, false) }

// newInstance is NewInstance for a hub (hub set) or any other instance.
func newInstance(cfg config.InstanceConfig, hub bool) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Version == "" {
		cfg.Version = Version
	}
	// A hub's warehouse keeps no binlog: every reader of one
	// (replication sender, WAL follower, trim) is satellite-side, so on
	// a hub each replicated event would be appended to an in-memory log
	// that only ever grows. A hub WAL would turn it back on, together
	// with the trim that bounds it. (Aggregation and pagg tables log on
	// neither role: they are derived, see warehouse.TableDef.Derived.)
	db := warehouse.OpenOptions(cfg.Name, warehouse.Options{NoBinlog: hub})

	conv := su.NewConverter()
	for _, r := range cfg.Resources {
		if r.Type == "hpc" && r.SUFactor > 0 {
			if err := conv.Register(r.Name, r.SUFactor); err != nil {
				return nil, err
			}
		}
	}

	eng, err := aggregate.New(db, cfg.AggregationLevels)
	if err != nil {
		return nil, err
	}

	reg := realm.NewRegistry()
	for _, info := range realms {
		if _, err := realm.Setup(db, info); err != nil {
			return nil, err
		}
		if err := reg.Register(info); err != nil {
			return nil, err
		}
		if err := eng.Setup(info); err != nil {
			return nil, err
		}
	}

	a := auth.NewAuthenticator(auth.NewVault())
	for _, s := range cfg.SSOSources {
		err := a.AddSSOSource(auth.SSOSource{
			Name: s.Name, Issuer: s.Issuer, Secret: s.Secret, Metadata: s.Metadata,
		})
		if err != nil {
			return nil, err
		}
	}

	ak, err := appkernel.NewMonitor(appkernel.DefaultKernels())
	if err != nil {
		return nil, err
	}
	var hier *hierarchy.Hierarchy
	if cfg.HierarchyFile != "" {
		f, err := os.Open(cfg.HierarchyFile)
		if err != nil {
			return nil, fmt.Errorf("core: hierarchy file: %w", err)
		}
		hier, err = hierarchy.Load(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return &Instance{
		Config:     cfg,
		DB:         db,
		Engine:     eng,
		Pipeline:   &ingest.Pipeline{DB: db, Converter: conv, Engine: eng},
		Auth:       a,
		Registry:   reg,
		Converter:  conv,
		AppKernels: ak,
		Hierarchy:  hier,
	}, nil
}

// Query answers a chart query over the instance's own aggregated data.
func (in *Instance) Query(realmName string, req aggregate.Request) ([]aggregate.Series, error) {
	out, _, err := in.QueryStatsCtx(context.Background(), realmName, req)
	return out, err
}

// QueryStatsCtx is Query plus per-query execution statistics (rows
// scanned), for the REST layer's explain and slow-query log. It is
// bounded by ctx: cancellation before the aggregation scan starts skips
// it, so a chart client that disconnects (or is shed mid-queue) does not
// consume the warehouse.
func (in *Instance) QueryStatsCtx(ctx context.Context, realmName string, req aggregate.Request) ([]aggregate.Series, aggregate.QueryInfo, error) {
	info, ok := in.Registry.Get(realmName)
	if !ok {
		return nil, aggregate.QueryInfo{}, aggregate.BadRequestf("core: instance %s has no realm %q", in.Config.Name, realmName)
	}
	return in.Engine.QueryStatsCtx(ctx, info, req)
}

// AggregateAll (re)aggregates every realm from its rebuild sources
// (Engine.RebuildAll: a satellite's own raw data, a hub's whole
// federation), each under its realm's mutex. A restart runs it after
// replaying the WAL or restoring a snapshot, since aggregation tables
// are never logged; ingest keeps them current between restarts.
func (in *Instance) AggregateAll() error {
	_, sp := obs.StartSpan(context.Background(), "instance.AggregateAll")
	defer sp.End()
	defer mAggSeconds.ObserveSince(time.Now())
	_, err := in.Engine.RebuildAll()
	return err
}

// EnsureAggregated rebuilds every stale realm before a read
// (Engine.EnsureCurrent), on a satellite and a hub alike: a realm goes
// stale when a write changed its facts whole, when its refresh failed,
// or when a pushdown delta changed its bins. Taking each realm's mutex
// in turn, it returns only after every write whose facts the caller
// could have seen has reached the aggregates.
func (in *Instance) EnsureAggregated() error { return in.Engine.EnsureCurrent() }

// Satellite is an instance that participates in federations as a data
// source.
type Satellite struct {
	*Instance

	mu      sync.Mutex
	cancels []context.CancelFunc
	senders []*replicate.Sender
}

// NewSatellite builds a satellite from its configuration.
func NewSatellite(cfg config.InstanceConfig) (*Satellite, error) {
	in, err := NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	return &Satellite{Instance: in}, nil
}

// Recover is a satellite's start-up order for its durable state, the
// WAL at walPath and the snapshot at dbPath, either of which may be ""
// for none. The WAL is replayed first. Once it replays anything it is
// the record of the warehouse, and the snapshot is not restored over
// it (Recover logs that it skipped it): the snapshot is older than
// every write logged after it was saved. Then the WAL writer opens at
// the binlog head. The snapshot seeds only a warehouse whose WAL
// replayed nothing — a first start, or a satellite run without a WAL —
// and with the writer already open, so its restore is the WAL's first
// record. Aggregates are rebuilt after whichever loaded. Returns the
// open WAL writer, nil without walPath, which the caller closes (a
// failed restore returns it too).
func (s *Satellite) Recover(walPath, dbPath string) (wal *warehouse.LogWriter, err error) {
	var replayed uint64
	if walPath != "" {
		if replayed, err = warehouse.ReplayLog(s.DB, walPath); err != nil {
			return nil, err
		}
		if replayed > 0 {
			coreLog.Info("recovered binlog events", "instance", s.Config.Name, "last_lsn", replayed, "wal", walPath)
			if err := s.AggregateAll(); err != nil {
				return nil, err
			}
		}
		if wal, err = warehouse.OpenLogWriterOpts(s.DB, walPath, s.DB.Binlog().Last(), warehouse.WALOptions{
			Fsync: warehouse.FsyncPolicy(s.Config.Durability.WALFsync),
		}); err != nil {
			return nil, err
		}
	}
	if _, err := os.Stat(dbPath); err != nil {
		return wal, nil
	}
	if replayed > 0 {
		coreLog.Warn("snapshot not restored: the WAL replayed, and it is the record", "instance", s.Config.Name, "db", dbPath, "wal", walPath)
		return wal, nil
	}
	f, err := os.Open(dbPath)
	if err == nil {
		err = s.RestoreFromHubBackup(f)
		f.Close()
	}
	if err != nil {
		return wal, fmt.Errorf("restoring %s: %w", dbPath, err)
	}
	coreLog.Info("restored warehouse from snapshot", "instance", s.Config.Name, "db", dbPath)
	return wal, nil
}

// filterFor resolves the realms a hub route names and builds the
// route's replication filter over their federated tables. A realm this
// instance does not serve, or one whose facts stay on the instance
// (realm.Info.Local), is an error.
func (s *Satellite) filterFor(route config.HubRoute) (replicate.Filter, []realm.Info, error) {
	names := route.IncludeRealms
	if len(names) == 0 {
		// Paper §II-C1: "the initial release of the federation module
		// replicates only the HPC Jobs realm data".
		names = []string{"Jobs"}
	}
	include := map[string]bool{}
	infos := make([]realm.Info, len(names))
	for i, name := range names {
		info, ok := s.Registry.Get(name)
		if !ok {
			return replicate.Filter{}, nil, fmt.Errorf("core: route to %s includes unknown realm %q", route.HubAddr, name)
		}
		if info.Local {
			return replicate.Filter{}, nil, fmt.Errorf("core: route to %s includes realm %q, which does not federate: its facts stay on the instance", route.HubAddr, name)
		}
		for _, t := range info.Federated() {
			include[t] = true
		}
		infos[i] = info
	}
	var exclude map[string]bool
	if len(route.ExcludeResources) > 0 {
		exclude = map[string]bool{}
		for _, r := range route.ExcludeResources {
			exclude[r] = true
		}
	}
	f := replicate.Filter{IncludeTables: include, ExcludeResources: exclude}
	if err := f.Validate(); err != nil {
		return replicate.Filter{}, nil, err
	}
	return f, infos, nil
}

// rewriterFor builds the replication rewriter for one hub route.
func (s *Satellite) rewriterFor(route config.HubRoute) (*replicate.Rewriter, error) {
	f, _, err := s.filterFor(route)
	if err != nil {
		return nil, err
	}
	return replicate.NewRewriter(s.Config.Name, f), nil
}

// pushdownFolderFor builds one route's aggregation-pushdown folder
// over the route's mergeable realms. An unmergeable realm is never
// silently pushed down — it falls back to raw fact replication with a
// startup warning. Returns nil (no error) when no realm qualifies.
func (s *Satellite) pushdownFolderFor(route config.HubRoute, flushInterval time.Duration) (*replicate.PushdownFolder, error) {
	f, infos, err := s.filterFor(route)
	if err != nil {
		return nil, err
	}
	var mergeable []realm.Info
	for _, info := range infos {
		if err := aggregate.MergeableRealm(info); err != nil {
			coreLog.Warn("realm is not mergeable; replicating its raw facts instead of pushing down",
				"realm", info.Name, "hub", route.HubAddr, "err", err)
			continue
		}
		mergeable = append(mergeable, info)
	}
	if len(mergeable) == 0 {
		coreLog.Warn("no mergeable realms on route; aggregation pushdown disabled, replicating raw facts",
			"hub", route.HubAddr)
		return nil, nil
	}
	return replicate.NewPushdownFolder(s.Engine, mergeable, f, flushInterval)
}

// StartFederation starts one tight-replication sender per configured
// tight hub route. It ships nothing for a loose route and says so once
// per route: loose dumps load on the hub through -loose or POST
// /api/federation/loose/{instance}. Senders reconnect with backoff and
// stop when ctx is cancelled.
func (s *Satellite) StartFederation(ctx context.Context) error {
	pushdown := s.Config.Replication.PushdownEnabled()
	var flushInterval time.Duration
	if pushdown {
		var err error
		if flushInterval, err = s.Config.Replication.PushdownFlushDuration(); err != nil {
			return err
		}
	}
	for _, route := range s.Config.Hubs {
		if route.Mode != "tight" {
			coreLog.Warn("this daemon does not ship loose dumps; load them on the hub with -loose or POST /api/federation/loose/{instance}",
				"instance", s.Config.Name, "hub", route.HubAddr, "mode", route.Mode)
			continue
		}
		rw, err := s.rewriterFor(route)
		if err != nil {
			return err
		}
		sender := &replicate.Sender{
			Instance: s.Config.Name,
			Version:  s.Config.Version,
			DB:       s.DB,
			Rewriter: rw,
		}
		if pushdown {
			if sender.Pushdown, err = s.pushdownFolderFor(route, flushInterval); err != nil {
				return err
			}
		}
		cctx, cancel := context.WithCancel(ctx)
		s.mu.Lock()
		s.cancels = append(s.cancels, cancel)
		s.senders = append(s.senders, sender)
		s.mu.Unlock()
		hubAddr := route.HubAddr
		go func() {
			// RunWithRetry only returns on clean shutdown or a permanent
			// handshake rejection (version mismatch, unregistered member,
			// the pushdown mode-switch guard demanding a resync). The
			// sender will never retry past a rejection, so without this
			// line the route would die with nothing in the logs.
			if err := sender.RunWithRetry(cctx, hubAddr, 0); err != nil {
				coreLog.Error("replication route stopped permanently",
					"instance", s.Config.Name, "hub", hubAddr, "err", err)
			}
		}()
	}
	return nil
}

// StopFederation stops all senders.
func (s *Satellite) StopFederation() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.cancels {
		c()
	}
	s.cancels = nil
	s.senders = nil
}

// SenderStats returns the progress of all running senders.
func (s *Satellite) SenderStats() []replicate.SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]replicate.SenderStats, 0, len(s.senders))
	for _, snd := range s.senders {
		out = append(out, snd.Stats())
	}
	return out
}

// TrimReplicatedLog discards binlog events every sender has already
// delivered, bounding a long-running satellite's memory. With no
// running senders nothing is trimmed (a disconnected hub must be able
// to resume). Returns the trimmed-through LSN.
func (s *Satellite) TrimReplicatedLog() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.senders) == 0 {
		return 0
	}
	min := uint64(0)
	for i, snd := range s.senders {
		pos := snd.Stats().Position
		if i == 0 || pos < min {
			min = pos
		}
	}
	if min > 0 {
		s.DB.Binlog().Trim(min)
	}
	return min
}

// DumpForRoute writes a loose-federation dump containing the realms of
// one route (paper §II-C2: "log files or database dumps could be
// periodically shipped to the federation hub, and batch processed
// there"): the snapshot events of the route's realm schemas through the
// route's rewriter, which keeps the federated tables, drops the rows of
// excluded resources and renames the schemas, so the dump holds what
// tight replication of the route would ship. It reads table state, not
// the binlog: its cost follows the data, not its history, and a trimmed
// binlog does not stop it.
func (s *Satellite) DumpForRoute(route config.HubRoute, w io.Writer) error {
	f, infos, err := s.filterFor(route)
	if err != nil {
		return err
	}
	var schemas []string
	for _, info := range infos {
		schemas = append(schemas, info.Schema)
	}
	lsn, evs := s.DB.SnapshotEvents(schemas)
	out, _ := replicate.NewRewriter(s.Config.Name, f).ProcessBatch(evs)
	return warehouse.WriteSnapshot(w, s.Config.Name, lsn, out)
}

// RunLooseFederation periodically dumps each loose route and hands the
// dump to ship for delivery ("log files or database dumps could be
// periodically shipped to the federation hub, and batch processed
// there", paper §II-C2). It blocks until ctx is cancelled. A route
// whose dump or shipment fails is logged at WARN and tried again next
// period; the loop goes on. Returns the number of successful shipments.
func (s *Satellite) RunLooseFederation(ctx context.Context, interval time.Duration,
	ship func(route config.HubRoute, dump io.Reader) error) (int, error) {
	if interval <= 0 {
		return 0, fmt.Errorf("core: loose federation interval must be positive")
	}
	var routes []config.HubRoute
	for _, r := range s.Config.Hubs {
		if r.Mode == "loose" {
			routes = append(routes, r)
		}
	}
	if len(routes) == 0 {
		return 0, fmt.Errorf("core: no loose hub routes configured")
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	shipped := 0
	for {
		select {
		case <-ctx.Done():
			return shipped, nil
		case <-ticker.C:
			// A tick pending alongside cancellation must not ship again:
			// select picks ready cases at random, so an extra dump could
			// otherwise race past a cancel issued mid-callback.
			if ctx.Err() != nil {
				return shipped, nil
			}
			for _, route := range routes {
				var dump bytes.Buffer
				if err := s.DumpForRoute(route, &dump); err != nil {
					coreLog.Warn("loose dump failed; retrying next period",
						"instance", s.Config.Name, "hub", route.HubAddr, "err", err)
					continue
				}
				if err := ship(route, &dump); err != nil {
					coreLog.Warn("loose dump shipment failed; retrying next period",
						"instance", s.Config.Name, "hub", route.HubAddr, "err", err)
					continue
				}
				shipped++
			}
		}
	}
}

// RestoreFromHubBackup restores warehouse state from a snapshot and
// re-aggregates. The snapshot is either this instance's own (the -db
// file of xdmod-ingestor and xdmod-satellite), whose every table lands
// back in its schema, or a hub-regenerated backup (paper §II-E4: "the
// hub itself could be used to regenerate the databases for the member
// instances"), whose fed_<instance> schema holds the federated tables
// of every realm: those land back in their realm schemas, located by
// table name, and anything else there is hub bookkeeping. Derived
// tables are not restored: AggregateAll rebuilds them. The snapshot is
// read whole before anything applies, so one that does not read touches
// nothing; its events, so rewritten, then apply as one transaction.
func (s *Satellite) RestoreFromHubBackup(r io.Reader) error {
	_, evs, err := warehouse.ReadSnapshot(r)
	if err != nil {
		return err
	}
	realmSchema := map[string]string{} // federated table -> its realm schema
	for _, info := range realms {
		for _, t := range info.Federated() {
			realmSchema[t] = info.Schema
		}
	}
	derived := map[string]bool{} // "schema.table" of the derived tables
	keep := evs[:0]
	for _, ev := range evs {
		key := ev.Schema + "." + ev.Table
		if ev.Kind == warehouse.EvCreateTable && ev.Def.Derived {
			derived[key] = true
		}
		if derived[key] {
			continue
		}
		if strings.HasPrefix(ev.Schema, replicate.HubSchemaPrefix) {
			dest, ok := realmSchema[ev.Table] // a fed_ schema's CREATE_SCHEMA names no table
			if !ok {
				continue
			}
			ev.Schema = dest
		}
		keep = append(keep, ev)
	}
	if _, err := s.DB.ApplyAll(keep); err != nil {
		return err
	}
	return s.AggregateAll()
}
