package core

import (
	"xdmodfed/internal/obs"
)

// Federation-core instrumentation: hub apply path, membership, and
// aggregation runs (both the hub's federation-wide pass and each
// instance's daily pass).
var (
	mHubMembers = obs.Default.Gauge("xdmodfed_hub_members",
		"Number of satellite instances registered with this hub.")
	mHubApplied = obs.Default.CounterVec("xdmodfed_hub_applied_events_total",
		"Events applied on the hub, per member: replicated batches and loose dumps.", "member")
	mHubBatchSeconds = obs.Default.Histogram("xdmodfed_hub_apply_batch_seconds",
		"Latency of the hub's apply step for one replication batch or loose dump.", nil)
	mMemberPosition = obs.Default.GaugeVec("xdmodfed_hub_member_position",
		"Last durably committed binlog LSN per member, as seen by the hub.", "member")
	mAggSeconds = obs.Default.Histogram("xdmodfed_aggregation_run_seconds",
		"Duration of one full aggregation run across all realms.", nil)

	coreLog = obs.Logger("core")
)
