package auth

import (
	"sync"
	"time"

	"xdmodfed/internal/obs"
)

// SessionCache memoizes verified bearer tokens so token verification
// — a vault/SSO round trip in a full deployment, a shared-lock map
// probe here — stays off the per-request hot path. Entries live for a
// short TTL (and never past the session's own expiry), are dropped
// eagerly on logout, and the cache is bounded: at capacity the oldest
// cached verification is evicted, which only costs that token one
// re-verification.
//
// Correctness: a cached session is a verification performed at most
// TTL ago. The only event that invalidates a token early is logout,
// which the REST layer forwards via Invalidate, so the cache never
// serves a logged-out session. Session expiry is enforced directly on
// every hit.

// Session-cache defaults.
const (
	DefaultSessionCacheEntries = 4096
	DefaultSessionCacheTTL     = time.Minute
)

var (
	mSessHits = obs.Default.Counter("xdmodfed_auth_session_cache_hits_total",
		"Bearer-token verifications served from the session cache.")
	mSessMisses = obs.Default.Counter("xdmodfed_auth_session_cache_misses_total",
		"Bearer-token verifications that had to hit the authenticator.")
	mSessEvictions = obs.Default.Counter("xdmodfed_auth_session_cache_evictions_total",
		"Cached session verifications evicted for capacity.")
)

type cachedSession struct {
	sess       Session
	verifiedAt time.Time
}

// SessionCache fronts an Authenticator's Validate with a bounded TTL
// memo. It shares the authenticator's clock, so tests driving a fake
// clock exercise expiry deterministically.
type SessionCache struct {
	auth       *Authenticator
	ttl        time.Duration
	maxEntries int

	mu      sync.RWMutex
	entries map[string]cachedSession
	order   []string // insert order; front = oldest (eviction victim)
}

// NewSessionCache builds a cache over a. maxEntries <= 0 uses
// DefaultSessionCacheEntries; ttl <= 0 uses DefaultSessionCacheTTL.
func NewSessionCache(a *Authenticator, maxEntries int, ttl time.Duration) *SessionCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSessionCacheEntries
	}
	if ttl <= 0 {
		ttl = DefaultSessionCacheTTL
	}
	return &SessionCache{
		auth: a, ttl: ttl, maxEntries: maxEntries,
		entries: make(map[string]cachedSession),
	}
}

// Validate resolves a token, serving a recent verification from the
// cache when one exists and falling through to the authenticator
// otherwise. The session's own expiry is enforced on every path.
func (c *SessionCache) Validate(token string) (Session, error) {
	now := c.auth.now()
	c.mu.RLock()
	e, ok := c.entries[token]
	c.mu.RUnlock()
	if ok && now.Sub(e.verifiedAt) <= c.ttl && now.Before(e.sess.Expires) {
		mSessHits.Inc()
		return e.sess, nil
	}
	mSessMisses.Inc()
	sess, err := c.auth.Validate(token)
	if err != nil {
		// Verification failed (unknown or expired): make sure no cached
		// copy outlives the authoritative answer.
		if ok {
			c.Invalidate(token)
		}
		return Session{}, err
	}
	c.mu.Lock()
	if _, exists := c.entries[token]; !exists {
		for len(c.entries) >= c.maxEntries && len(c.order) > 0 {
			victim := c.order[0]
			c.order = c.order[1:]
			if _, live := c.entries[victim]; live {
				delete(c.entries, victim)
				mSessEvictions.Inc()
			}
		}
		c.order = append(c.order, token)
	}
	c.entries[token] = cachedSession{sess: sess, verifiedAt: now}
	c.mu.Unlock()
	return sess, nil
}

// Invalidate drops a token's cached verification (logout). The token
// may keep a stale slot in the eviction order; it is skipped when its
// turn comes.
func (c *SessionCache) Invalidate(token string) {
	c.mu.Lock()
	delete(c.entries, token)
	c.mu.Unlock()
}
