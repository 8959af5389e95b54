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
	"xdmodfed/internal/warehouse/store"
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

// FederatedTablesFor maps a realm name to the tables that replicate to
// a hub. The Jobs realm federates its fact table; Cloud federates
// reconstructed sessions; Storage federates usage facts; SUPReMM
// federates only job summaries (paper §II-C5 — the detailed
// timeseries and job scripts are deliberately satellite-only).
func FederatedTablesFor(realmName string) []string {
	switch realmName {
	case "Jobs":
		return []string{jobs.FactTable}
	case "Cloud":
		return []string{cloud.SessionTable}
	case "Storage":
		return []string{storage.FactTable}
	case "SUPReMM":
		return perf.FederatedTables()
	case "Gateways":
		return []string{gateway.FactTable}
	default:
		return nil
	}
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

// openWarehouse builds the instance's warehouse on the configured
// segment-store backend. The zero-value storage config reproduces the
// pre-tiering behavior exactly: an in-memory backend with sealing
// disabled. With backend "disk", cold segments spill to
// cfg.Storage.DataDir and tables seal their hot tail every
// cfg.Storage.TailRows() appended rows.
//
// A hub's warehouse keeps no binlog: every reader of one (replication
// sender, WAL follower, trim) is satellite-side, so on a hub each
// replicated event would be appended to an in-memory log that only
// ever grows. The hub WAL on the ROADMAP turns it back on, together
// with the trim that bounds it. (Aggregation and pagg tables log on
// neither role: they are derived, see warehouse.TableDef.Derived.)
func openWarehouse(cfg config.InstanceConfig) (*warehouse.DB, error) {
	var backend store.Backend
	switch cfg.Storage.Backend {
	case "disk":
		d, err := store.OpenDisk(cfg.Storage.DataDir, cfg.Storage.MaxResidentBytes)
		if err != nil {
			return nil, fmt.Errorf("core: opening segment store: %w", err)
		}
		backend = d
	default:
		backend = store.NewMem()
	}
	return warehouse.OpenOptions(cfg.Name, warehouse.Options{
		Storage:     backend,
		HotTailRows: cfg.Storage.TailRows(),
		NoBinlog:    cfg.IsHub,
	}), nil
}

// NewInstance builds an instance from its configuration: all four
// realms are set up, resources register their SU conversion factors,
// aggregation levels come from the config (instances "may be
// configured to aggregate their data differently", §II-C3), and SSO
// sources are installed.
func NewInstance(cfg config.InstanceConfig) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Version == "" {
		cfg.Version = Version
	}
	if n := cfg.Observability.TraceCapacity; n > 0 {
		// Process-wide: the last instance constructed wins, which is the
		// normal one-instance-per-process deployment.
		obs.DefaultTracer.SetCapacity(n)
	}
	db, err := openWarehouse(cfg)
	if err != nil {
		return nil, err
	}

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
	if _, err := jobs.Setup(db); err != nil {
		return nil, err
	}
	if err := cloud.Setup(db); err != nil {
		return nil, err
	}
	if _, err := storage.Setup(db); err != nil {
		return nil, err
	}
	if err := perf.Setup(db); err != nil {
		return nil, err
	}
	if err := alloc.Setup(db); err != nil {
		return nil, err
	}
	if _, err := gateway.Setup(db); err != nil {
		return nil, err
	}
	for _, info := range []realm.Info{jobs.RealmInfo(), cloud.RealmInfo(), storage.RealmInfo(), perf.RealmInfo(), alloc.RealmInfo(), gateway.RealmInfo()} {
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
	info, ok := in.Registry.Get(realmName)
	if !ok {
		return nil, aggregate.BadRequestf("core: instance %s has no realm %q", in.Config.Name, realmName)
	}
	return in.Engine.Query(info, req)
}

// QueryStatsCtx is Query plus per-query execution statistics (rows
// scanned), for the REST layer's explain and slow-query log. It is
// bounded by ctx: cancellation aborts the aggregation scan between
// chunks, so a chart client that disconnects (or is shed mid-queue)
// stops consuming the warehouse.
func (in *Instance) QueryStatsCtx(ctx context.Context, realmName string, req aggregate.Request) ([]aggregate.Series, aggregate.QueryInfo, error) {
	info, ok := in.Registry.Get(realmName)
	if !ok {
		return nil, aggregate.QueryInfo{}, aggregate.BadRequestf("core: instance %s has no realm %q", in.Config.Name, realmName)
	}
	return in.Engine.QueryStatsCtx(ctx, info, req)
}

// AggregateAll (re)aggregates every realm from the instance's own raw
// data. A restart runs it after replaying the WAL or restoring a
// snapshot, since aggregation tables are never logged; ingest keeps
// them current between restarts.
func (in *Instance) AggregateAll() error {
	_, sp := obs.StartSpan(context.Background(), "instance.AggregateAll")
	defer sp.End()
	defer mAggSeconds.ObserveSince(time.Now())
	defer mAggRuns.Inc()
	for _, name := range in.Registry.Names() {
		info, _ := in.Registry.Get(name)
		if _, err := in.Engine.Reaggregate(info, []string{info.Schema}); err != nil {
			return err
		}
	}
	return nil
}

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

// routeRealms resolves a hub route's realm names.
func (s *Satellite) routeRealms(route config.HubRoute) []string {
	realms := route.IncludeRealms
	if len(realms) == 0 {
		// Paper §II-C1: "the initial release of the federation module
		// replicates only the HPC Jobs realm data".
		realms = []string{"Jobs"}
	}
	return realms
}

// filterFor builds the replication filter for one hub route.
func (s *Satellite) filterFor(route config.HubRoute) (replicate.Filter, error) {
	include := map[string]bool{}
	for _, r := range s.routeRealms(route) {
		tables := FederatedTablesFor(r)
		if tables == nil {
			return replicate.Filter{}, fmt.Errorf("core: route to %s includes unknown realm %q", route.HubAddr, r)
		}
		for _, t := range tables {
			include[t] = true
		}
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
		return replicate.Filter{}, err
	}
	return f, nil
}

// rewriterFor builds the replication rewriter for one hub route.
func (s *Satellite) rewriterFor(route config.HubRoute) (*replicate.Rewriter, error) {
	f, err := s.filterFor(route)
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
	f, err := s.filterFor(route)
	if err != nil {
		return nil, err
	}
	var infos []realm.Info
	for _, name := range s.routeRealms(route) {
		info, ok := s.Registry.Get(name)
		if !ok {
			continue // federates tables without a queryable realm; ship raw
		}
		if err := aggregate.MergeableRealm(info); err != nil {
			coreLog.Warn("realm is not mergeable; replicating its raw facts instead of pushing down",
				"realm", name, "hub", route.HubAddr, "err", err)
			continue
		}
		infos = append(infos, info)
	}
	if len(infos) == 0 {
		coreLog.Warn("no mergeable realms on route; aggregation pushdown disabled, replicating raw facts",
			"hub", route.HubAddr)
		return nil, nil
	}
	return replicate.NewPushdownFolder(s.Engine, infos, f, flushInterval)
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
// there"). Resource exclusions are honored by dumping through the
// route's rewriter into a scratch store first.
func (s *Satellite) DumpForRoute(route config.HubRoute, w io.Writer) error {
	rw, err := s.rewriterFor(route)
	if err != nil {
		return err
	}
	scratch := warehouse.OpenWithoutBinlog("dump-" + s.Config.Name)
	defer scratch.Close()
	if _, err := replicate.Pump(s.DB, scratch, rw, 0); err != nil {
		return err
	}
	return scratch.Snapshot(w)
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
// tables are not restored: AggregateAll rebuilds them.
func (s *Satellite) RestoreFromHubBackup(r io.Reader) error {
	scratch := warehouse.OpenWithoutBinlog("backup-restore")
	defer scratch.Close()
	if _, err := scratch.Restore(r); err != nil {
		return err
	}
	realmSchema := map[string]string{} // federated table -> its realm schema
	for _, name := range s.Registry.Names() {
		info, _ := s.Registry.Get(name)
		for _, t := range FederatedTablesFor(name) {
			realmSchema[t] = info.Schema
		}
	}
	for _, sn := range scratch.Schemas() {
		ss := scratch.Schema(sn)
		hubBackup := strings.HasPrefix(sn, replicate.HubSchemaPrefix)
		for _, tn := range ss.Tables() {
			src := ss.Table(tn)
			def := src.Def()
			dest, ok := sn, true
			if hubBackup {
				dest, ok = realmSchema[tn]
			}
			if !ok || def.Derived {
				continue
			}
			if _, err := s.DB.EnsureSchema(dest).EnsureTable(def); err != nil {
				return err
			}
			// Bulk-load the table's columnar snapshot: one validated LOAD
			// transaction, no row materialization. The scratch DB is
			// discarded afterwards, so sharing its vectors is safe.
			if err := s.DB.LoadColumns(dest, tn, src.Data().ColumnData()); err != nil {
				return err
			}
		}
	}
	return s.AggregateAll()
}
