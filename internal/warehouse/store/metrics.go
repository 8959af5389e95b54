package store

import "xdmodfed/internal/obs"

// Tiered-storage metrics. Gauges are adjusted with deltas so multiple
// backends (one per DB instance, common in tests) aggregate instead of
// clobbering each other; resident-bytes is therefore the fleet-wide
// materialized-view footprint, approximate during eviction races.
var (
	mSegments = obs.Default.Gauge("xdmodfed_store_segments",
		"Sealed columnar segments currently live across all backends.")
	mSegmentBytes = obs.Default.Gauge("xdmodfed_store_segment_bytes",
		"Total sealed payload bytes (file bytes for disk segments).")
	mResidentBytes = obs.Default.Gauge("xdmodfed_store_resident_bytes",
		"Heap bytes held by materialized segment views.")
	mSeals = obs.Default.CounterVec("xdmodfed_store_seals_total",
		"Segments sealed, by backend.", "backend")
	mSealErrors = obs.Default.Counter("xdmodfed_store_seal_errors_total",
		"Failed seal attempts (data stayed in the RAM tail).")
	mLoads = obs.Default.Counter("xdmodfed_store_segment_loads_total",
		"Cold-segment materializations (mapped file decoded to a view).")
	mEvictions = obs.Default.Counter("xdmodfed_store_evictions_total",
		"Materialized views dropped to stay under max_resident_bytes.")
	mDrops = obs.Default.Counter("xdmodfed_store_segments_dropped_total",
		"Segments released by truncate, compaction, or bulk replace.")
	mTornSegments = obs.Default.Counter("xdmodfed_store_torn_segments_total",
		"Segment files discarded on open because the CRC footer did not verify (crash mid-seal).")
	mStaleSegments = obs.Default.Counter("xdmodfed_store_stale_segments_total",
		"Intact leftover segment files discarded on open (state is re-sealed from WAL/snapshot).")
)

// NoteSealError records a failed seal attempt; the warehouse calls it
// when it falls back to keeping the would-be segment in its RAM tail.
func NoteSealError() { mSealErrors.Inc() }
