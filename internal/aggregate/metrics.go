package aggregate

import (
	"xdmodfed/internal/obs"
)

// Aggregation-engine instrumentation: chart-query latency per realm,
// aggregation-table rows scanned while answering queries, and fact
// rows folded into aggregates.
var (
	mQuerySeconds = obs.Default.HistogramVec("xdmodfed_query_seconds",
		"Latency of one chart query against a realm's aggregation tables.",
		nil, "realm")
	mRowsScanned = obs.Default.Counter("xdmodfed_query_rows_scanned_total",
		"Aggregation-table rows scanned while answering chart queries.")
	mFactsApplied = obs.Default.Counter("xdmodfed_aggregate_facts_total",
		"Fact rows folded into aggregation tables.")
	mIncrementalFacts = obs.Default.Counter("xdmodfed_agg_incremental_facts_total",
		"Fact rows folded incrementally (at replication-apply time) instead of by a full rebuild.")
	// scope is "realm" for a full rebuild and "groups" for a scoped
	// recompute of the groups a non-additive write touched; the count
	// of this histogram is the number of recomputes.
	mRealmAggSeconds = obs.Default.HistogramVec("xdmodfed_agg_realm_seconds",
		"Duration of one aggregation recompute of a single realm, by scope.",
		nil, "realm", "scope")

	// Aggregation pushdown (see delta.go / pagg.go). The role label
	// separates the satellite side ("sent": deltas flushed onto the
	// wire) from the hub side ("applied": deltas installed into pagg
	// tables) so one federation node exposes both when it plays both
	// parts in a multi-tier topology.
	mPushdownDeltas = obs.Default.CounterVec("xdmodfed_pushdown_deltas_total",
		"Partial-aggregate deltas, by role (sent by a satellite folder / applied into hub pagg tables).",
		"role")
	mPushdownDeltaRows = obs.Default.CounterVec("xdmodfed_pushdown_delta_rows_total",
		"Partial-aggregate bins carried by pushdown deltas, by role.",
		"role")
	mPushdownBytes = obs.Default.CounterVec("xdmodfed_pushdown_bytes_total",
		"Wire bytes of encoded pushdown deltas, by role.",
		"role")
	mPushdownMergeSeconds = obs.Default.Gauge("xdmodfed_pushdown_merge_seconds_total",
		"Cumulative seconds spent installing pushdown deltas into pagg tables.")

	aggLog = obs.Logger("aggregate")
)

// NotePushdownSent records the satellite side of the pushdown metrics:
// one flush's delta count, bin count and encoded wire size. Called by
// the replication sender after the hub acknowledges the flush.
func NotePushdownSent(deltas, rows, bytes int) {
	mPushdownDeltas.With("sent").Add(uint64(deltas))
	mPushdownDeltaRows.With("sent").Add(uint64(rows))
	mPushdownBytes.With("sent").Add(uint64(bytes))
}
