package warehouse

import "xdmodfed/internal/obs"

// Warehouse instrumentation. Handles are resolved once at package init
// so the hot paths (row mutation, binlog append) pay one atomic add
// per operation, no map lookups.
var (
	mTxns = obs.Default.Counter("xdmodfed_warehouse_txn_total",
		"Write transactions committed against the warehouse (Do, Insert, Upsert and binlog-event applies).")
	mBinlogEvents = obs.Default.Counter("xdmodfed_warehouse_binlog_events_total",
		"Events appended to the in-memory binlog.")
	mBinlogTrims = obs.Default.Counter("xdmodfed_warehouse_binlog_trimmed_events_total",
		"Binlog events discarded by Trim after all replicas acknowledged them.")
	mSnapshotSeconds = obs.Default.Histogram("xdmodfed_warehouse_snapshot_seconds",
		"Time to encode and write a warehouse snapshot (full, per-schema or loose dump).", nil)
	mRestoreSeconds = obs.Default.Histogram("xdmodfed_warehouse_restore_seconds",
		"Time to read, decode and check a warehouse snapshot before its events apply.", nil)
	mSnapshotPublishes = obs.Default.Counter("xdmodfed_warehouse_snapshot_publishes_total",
		"Immutable table snapshots published at write-transaction commit (the copy-on-write version swap lock-free readers scan).")
	mCompactions = obs.Default.Counter("xdmodfed_warehouse_snapshot_compactions_total",
		"Column-vector compactions: tables rewritten without tombstones once dead rows outnumber live ones.")
	mWALFsyncSeconds = obs.Default.Histogram("xdmodfed_warehouse_wal_fsync_seconds",
		"Durable-binlog fsync latency.", nil)
	mWALBytes = obs.Default.Counter("xdmodfed_warehouse_wal_bytes_total",
		"Bytes appended to the durable binlog file, framing included.")
	mWALTruncated = obs.Default.Counter("xdmodfed_warehouse_wal_truncated_tails_total",
		"WAL recoveries that found and truncated a torn or corrupt tail.")
)
