package qcache

import "xdmodfed/internal/obs"

// Query-cache instrumentation, labeled by cache name (one cache per
// REST server, named after its instance). Hit ratio is
// hits / (hits + misses + coalesced); coalesced lookups waited on
// another caller's fill instead of computing their own.
var (
	mHitsVec = obs.Default.CounterVec("xdmodfed_qcache_hits_total",
		"Query-cache lookups served from a valid cached entry.", "cache")
	mMissesVec = obs.Default.CounterVec("xdmodfed_qcache_misses_total",
		"Query-cache lookups that computed the result (cold key, stale epoch, or TTL expiry).", "cache")
	mCoalescedVec = obs.Default.CounterVec("xdmodfed_qcache_coalesced_total",
		"Query-cache lookups that joined an identical in-flight computation.", "cache")
	mEvictionsVec = obs.Default.CounterVec("xdmodfed_qcache_evictions_total",
		"Query-cache entries evicted to stay within the byte capacity.", "cache")
	mEntriesVec = obs.Default.GaugeVec("xdmodfed_qcache_entries",
		"Live entries held by the query cache.", "cache")
	mBytesVec = obs.Default.GaugeVec("xdmodfed_qcache_bytes",
		"Approximate bytes held by the query cache.", "cache")
	mFillVec = obs.Default.HistogramVec("xdmodfed_qcache_fill_seconds",
		"Latency of one cache fill (the underlying aggregation query).", nil, "cache")
)
