package admission

import "xdmodfed/internal/obs"

// Prometheus-format series for the front door, exported through the
// instance's /metrics like every other subsystem. The shed counter's
// reason label carries the Decision.Reason vocabulary, so dashboards
// can split "client over quota" from "server saturated".
var (
	mAdmitted = obs.Default.Counter("xdmodfed_admission_admitted_total",
		"Requests admitted through the front-door admission controller.")
	mShed = obs.Default.CounterVec("xdmodfed_admission_shed_total",
		"Requests shed by the admission controller, by reason.", "reason")
	mQueueWait = obs.Default.Histogram("xdmodfed_admission_queue_wait_seconds",
		"Time admitted requests spent waiting in the admission queue.", nil)
	mInflight = obs.Default.Gauge("xdmodfed_admission_inflight",
		"Requests currently holding an admission slot.")
	mQueueDepth = obs.Default.Gauge("xdmodfed_admission_queue_depth",
		"Requests currently waiting in the admission queue.")
)
