package config

import "flag"

// BindFlags registers on fs every daemon command-line knob that is
// backed by a configuration key: the set the hub and satellite share
// (query-cache size, storage, admission) plus the
// role's own (hub: scrape interval; satellite: replication mode,
// pushdown flush pacing, WAL fsync). The returned apply is called after
// fs is parsed and *cfg is loaded from its file: it copies over the
// file only the flags the operator actually set, then re-validates the
// configuration so a bad flag value fails with its section's error.
func BindFlags(fs *flag.FlagSet, cfg *InstanceConfig, hub bool) (apply func() error) {
	set := map[string]func(){} // flag name -> copy the parsed value into *cfg
	str := func(dst *string, name, usage string) {
		v := fs.String(name, "", usage)
		set[name] = func() { *dst = *v }
	}
	num := func(dst *int, name, usage string) {
		v := fs.Int(name, 0, usage)
		set[name] = func() { *dst = *v }
	}
	i64 := func(dst *int64, name, usage string) {
		v := fs.Int64(name, 0, usage)
		set[name] = func() { *dst = *v }
	}
	f64 := func(dst *float64, name, usage string) {
		v := fs.Float64(name, 0, usage)
		set[name] = func() { *dst = *v }
	}

	i64(&cfg.QueryCache.MaxBytes, "query-cache-bytes", "query-cache capacity in bytes (0 = config/default)")

	str(&cfg.Storage.Backend, "storage-backend", "segment-store backend: memory or disk (default config/memory)")
	str(&cfg.Storage.DataDir, "data-dir", "segment directory for -storage-backend=disk")
	num(&cfg.Storage.HotTailRows, "hot-tail-rows", "rows buffered per table before sealing a segment (0 = config/default)")
	i64(&cfg.Storage.MaxResidentBytes, "max-resident-bytes", "heap cap for materialized disk segments (0 = config/default)")

	adm := fs.Bool("admission", false, "enable front-door admission control (rate limits, bounded queue, load shedding)")
	set["admission"] = func() { cfg.Admission.Enabled = *adm }
	f64(&cfg.Admission.GlobalRPS, "admission-global-rps", "global sustained requests/sec (0 = config/default)")
	f64(&cfg.Admission.UserRPS, "admission-user-rps", "per-user sustained requests/sec (0 = config/default)")
	num(&cfg.Admission.MaxConcurrent, "max-concurrent", "concurrent in-flight API requests past which arrivals queue (0 = config/default)")
	num(&cfg.Admission.MaxQueue, "max-queue", "queued API requests past which arrivals are shed with 429 (0 = config/default)")
	str(&cfg.Admission.QueueTimeout, "queue-timeout", "max time a request may wait for a slot, e.g. 2s (default config/2s)")

	if hub {
		str(&cfg.Telemetry.ScrapeInterval, "scrape-interval", "member telemetry scrape interval, e.g. 15s (default config/15s)")
	} else {
		str(&cfg.Replication.Mode, "replication-mode", "tight replication payload: facts or pushdown (default config/facts)")
		str(&cfg.Replication.PushdownFlushInterval, "pushdown-flush-interval", "delta flush pacing for -replication-mode=pushdown, e.g. 2s")
		str(&cfg.Durability.WALFsync, "wal-fsync", "WAL fsync policy: always, interval (100ms) or none (default config/always)")
	}

	return func() error {
		fs.Visit(func(f *flag.Flag) {
			if copyOver, ok := set[f.Name]; ok {
				copyOver()
			}
		})
		return cfg.Validate()
	}
}
