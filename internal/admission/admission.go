// Package admission is the REST front door's admission controller:
// layered token-bucket rate limits (global, per-center, per-user), a
// concurrency cap with a bounded FIFO wait queue, and deterministic
// load-shedding. A federation hub serving charts to an entire campus
// shares one warehouse across every tenant; without admission control
// a single runaway dashboard can monopolize it. The controller decides
// — before any query work happens — whether a request runs now, waits
// briefly for a slot, or is shed with an honest Retry-After hint:
// refusals always say when to come back.
//
// The tiers are checked fine to coarse — per-user, then per-center,
// then global — so a request shed by its own tier never consumes a
// broader tier's tokens: one user hammering past their quota cannot
// drain their center's (or the process's) budget by being refused.
// The global bucket still protects the process, the per-center
// buckets stop one tenant starving the rest, and the per-user buckets
// stop one user starving their own center.
// Only a request that clears all three competes for an execution
// slot; past the concurrency cap it waits in FIFO order up to the
// queue bound and deadline, and past those it is shed. Overload
// behavior is therefore bounded and testable, not emergent: admitted
// requests wait at most QueueTimeout, and everything else gets a 429.
package admission

import (
	"context"
	"errors"
	"time"
)

// Shed reasons carried in Decision.Reason and the
// xdmodfed_admission_shed_total metric's reason label.
const (
	ReasonGlobalRate   = "rate_global"
	ReasonCenterQuota  = "quota_center"
	ReasonUserQuota    = "quota_user"
	ReasonQueueFull    = "queue_full"
	ReasonQueueTimeout = "queue_timeout"
)

// Defaults for Config zero values (production-shaped: generous enough
// that a healthy interactive portal never notices them).
const (
	DefaultGlobalRate    = 5000.0
	DefaultPerCenterRate = 1000.0
	DefaultPerUserRate   = 100.0
	DefaultMaxConcurrent = 256
	DefaultQueueFactor   = 4 // MaxQueue = factor × MaxConcurrent
	DefaultQueueTimeout  = 2 * time.Second
)

// minRetryAfter floors the Retry-After carried by shed decisions, so
// clients never busy-loop on sub-second hints.
const minRetryAfter = time.Second

// Rate is one token-bucket tier: RPS requests per second sustained,
// Burst instantly. RPS < 0 disables the tier; RPS == 0 selects the
// tier's default; Burst <= 0 defaults to 2×RPS.
type Rate struct {
	RPS   float64
	Burst float64
}

// resolve applies the tier defaults.
func (r Rate) resolve(defRPS float64) Rate {
	switch {
	case r.RPS < 0:
		return Rate{}
	case r.RPS == 0:
		r.RPS = defRPS
	}
	if r.Burst <= 0 {
		r.Burst = 2 * r.RPS
	}
	return r
}

// Config tunes one controller. The zero value resolves to the
// defaults above; individual tiers are disabled with a negative RPS
// and the concurrency cap with a negative MaxConcurrent.
type Config struct {
	Global    Rate
	PerCenter Rate
	PerUser   Rate

	// MaxConcurrent caps requests executing at once; 0 = default,
	// negative = uncapped (no queue, no concurrency shedding).
	MaxConcurrent int
	// MaxQueue bounds the FIFO wait list; 0 = 4 × MaxConcurrent.
	MaxQueue int
	// QueueTimeout is how long a queued request may wait before it is
	// shed; 0 = 2s.
	QueueTimeout time.Duration
	// MaxKeys bounds the per-user and per-center bucket maps; 0 =
	// DefaultMaxKeys each.
	MaxKeys int
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Decision is the controller's verdict on one request.
type Decision struct {
	// Admitted reports the request may run; the holder must call
	// Release exactly once when done.
	Admitted bool
	// Reason is the shed reason ("" when admitted).
	Reason string
	// RetryAfter is the hint a shed response must carry; always
	// positive when Admitted is false.
	RetryAfter time.Duration
	// Waited is how long the request queued before admission.
	Waited time.Duration

	release func()
}

// Release returns the admission slot. Safe to call on a shed (or
// zero) Decision, where it does nothing.
func (d *Decision) Release() {
	if d.release != nil {
		d.release()
		d.release = nil
	}
}

// Controller is the front-door admission controller. Build with New.
type Controller struct {
	cfg     Config
	global  *Bucket
	centers *KeyedBuckets
	users   *KeyedBuckets
	queue   *Queue // nil when uncapped
	now     func() time.Time
}

// New builds a controller from cfg, resolving zero values to the
// package defaults.
func New(cfg Config) *Controller {
	cfg.Global = cfg.Global.resolve(DefaultGlobalRate)
	cfg.PerCenter = cfg.PerCenter.resolve(DefaultPerCenterRate)
	cfg.PerUser = cfg.PerUser.resolve(DefaultPerUserRate)
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxQueue <= 0 && cfg.MaxConcurrent > 0 {
		cfg.MaxQueue = DefaultQueueFactor * cfg.MaxConcurrent
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Controller{
		cfg:     cfg,
		global:  NewBucket(cfg.Global.RPS, cfg.Global.Burst),
		centers: NewKeyedBuckets(cfg.PerCenter.RPS, cfg.PerCenter.Burst, cfg.MaxKeys),
		users:   NewKeyedBuckets(cfg.PerUser.RPS, cfg.PerUser.Burst, cfg.MaxKeys),
		now:     cfg.Clock,
	}
	if cfg.MaxConcurrent > 0 {
		c.queue = NewQueue(cfg.MaxConcurrent, cfg.MaxQueue)
	}
	return c
}

// shed builds a refusal with an honest, floored Retry-After.
func (c *Controller) shed(reason string, after time.Duration) Decision {
	if after < minRetryAfter {
		after = minRetryAfter
	}
	mShed.With(reason).Inc()
	return Decision{Reason: reason, RetryAfter: after}
}

// Admit runs one request through the limiter tiers and the admission
// queue. user keys the per-user tier; center keys the per-center tier
// (empty skips it). ctx bounds the queue wait alongside QueueTimeout,
// so a client that disconnects while queued frees its place at once.
func (c *Controller) Admit(ctx context.Context, user, center string) Decision {
	now := c.now()
	if ok, after := c.users.Take(user, now); !ok {
		return c.shed(ReasonUserQuota, after)
	}
	if center != "" {
		if ok, after := c.centers.Take(center, now); !ok {
			return c.shed(ReasonCenterQuota, after)
		}
	}
	if ok, after := c.global.Take(now); !ok {
		return c.shed(ReasonGlobalRate, after)
	}
	if c.queue == nil {
		mAdmitted.Inc()
		mInflight.Add(1)
		return Decision{Admitted: true, release: func() { mInflight.Add(-1) }}
	}
	if c.queue.TryAcquire() {
		mAdmitted.Inc()
		mInflight.Add(1)
		return Decision{Admitted: true, release: c.releaseSlot}
	}
	wctx, cancel := context.WithTimeout(ctx, c.cfg.QueueTimeout)
	defer cancel()
	start := c.now()
	mQueueDepth.Add(1)
	err := c.queue.Acquire(wctx)
	mQueueDepth.Add(-1)
	waited := c.now().Sub(start)
	switch {
	case err == nil:
		mAdmitted.Inc()
		mQueueWait.Observe(waited.Seconds())
		mInflight.Add(1)
		return Decision{Admitted: true, Waited: waited, release: c.releaseSlot}
	case errors.Is(err, ErrQueueFull):
		return c.shed(ReasonQueueFull, minRetryAfter)
	default:
		// Deadline (or caller cancellation) while queued: advise waiting
		// roughly one more queue drain.
		return c.shed(ReasonQueueTimeout, c.cfg.QueueTimeout)
	}
}

// AdmitAnon runs an unauthenticated request through the global tier
// only. Anonymous routes (login, version discovery) must stay
// responsive under attack but are too cheap to compete for execution
// slots — so they pay the process-wide rate and nothing else.
func (c *Controller) AdmitAnon() Decision {
	if ok, after := c.global.Take(c.now()); !ok {
		return c.shed(ReasonGlobalRate, after)
	}
	mAdmitted.Inc()
	return Decision{Admitted: true}
}

func (c *Controller) releaseSlot() {
	mInflight.Add(-1)
	c.queue.Release()
}

// Stats is a point-in-time snapshot for /healthz-style introspection.
type Stats struct {
	Inflight   int `json:"inflight"`
	QueueDepth int `json:"queue_depth"`
	// MaxConcurrent and MaxQueue echo the resolved bounds so operators
	// can read utilization off one document.
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
}

// Stats snapshots the queue occupancy.
func (c *Controller) Stats() Stats {
	st := Stats{MaxConcurrent: c.cfg.MaxConcurrent, MaxQueue: c.cfg.MaxQueue}
	if c.queue != nil {
		st.Inflight = c.queue.Inflight()
		st.QueueDepth = c.queue.Depth()
	}
	return st
}
