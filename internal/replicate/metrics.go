package replicate

import (
	"io"

	"xdmodfed/internal/obs"
)

// Replication instrumentation. Sender-side metrics are labeled by the
// replicating instance (one satellite process may run several senders);
// the lag gauge is additionally labeled by hub address so multi-hub
// routes (paper §II-C4) report independently.
var (
	mSentEvents = obs.Default.CounterVec("xdmodfed_replicate_sent_events_total",
		"Binlog events sent to a hub over tight replication.", "instance")
	mSentBatches = obs.Default.CounterVec("xdmodfed_replicate_sent_batches_total",
		"Replication batches acknowledged by a hub.", "instance")
	mSentBytes = obs.Default.CounterVec("xdmodfed_replicate_sent_bytes_total",
		"Bytes written to hub connections: gob frame envelopes, the events packed inside them in the binary event codec, and pushdown deltas.", "instance")
	mRetries = obs.Default.CounterVec("xdmodfed_replicate_retries_total",
		"Sender reconnect attempts after transient failures and refused batches.", "instance")
	mLag = obs.Default.GaugeVec("xdmodfed_replication_lag_events",
		"Per-satellite replication lag in binlog events: satellite binlog head minus the last hub-acknowledged position. Returns to 0 when the hub has applied everything.",
		"instance", "hub")
	mRecvBytes = obs.Default.Counter("xdmodfed_replicate_recv_bytes_total",
		"Bytes read from satellite connections on the hub side.")
	mRecvBatches = obs.Default.CounterVec("xdmodfed_replicate_recv_batches_total",
		"Replication batches received and applied, per member instance.", "instance")
	mHeartbeats = obs.Default.CounterVec("xdmodfed_replicate_heartbeats_total",
		"Keep-alive frames sent, by role (hub acks, satellite idle batches).", "role")
	mPeerTimeouts = obs.Default.CounterVec("xdmodfed_replicate_peer_timeouts_total",
		"Connections closed because the peer was silent past the heartbeat deadline, by role.", "role")
	mOversizeFrames = obs.Default.Counter("xdmodfed_replicate_oversize_frames_total",
		"Connections closed because a replication frame exceeded the maximum size.")
)

// countingWriter counts bytes flowing to the wire.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// countingReader counts bytes arriving from the wire.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}
