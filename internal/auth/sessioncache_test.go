package auth

import (
	"fmt"
	"testing"
	"time"
)

// cacheStats returns a reader of the session-cache hit and miss counts
// since the call (the counters are process-wide).
func cacheStats() func() (hits, misses uint64) {
	h0, m0 := mSessHits.Value(), mSessMisses.Value()
	return func() (uint64, uint64) { return mSessHits.Value() - h0, mSessMisses.Value() - m0 }
}

func cacheFixture(t *testing.T) (*Authenticator, *SessionCache, *time.Time) {
	t.Helper()
	v := NewVault()
	if err := v.Create(User{Username: "alice", Role: RoleUser}, "correct-horse-battery"); err != nil {
		t.Fatal(err)
	}
	a := NewAuthenticator(v)
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a.now = func() time.Time { return now }
	return a, NewSessionCache(a, 8, 30*time.Second), &now
}

func TestSessionCacheHit(t *testing.T) {
	a, c, _ := cacheFixture(t)
	stats := cacheStats()
	sess, err := a.LoginLocal("alice", "correct-horse-battery")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Validate(sess.Token)
		if err != nil || got.Username != "alice" {
			t.Fatalf("validate %d: %+v, %v", i, got, err)
		}
	}
	hits, misses := stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1 (first fills, rest hit)", hits, misses)
	}
}

func TestSessionCacheTTLExpiry(t *testing.T) {
	a, c, now := cacheFixture(t)
	stats := cacheStats()
	sess, _ := a.LoginLocal("alice", "correct-horse-battery")
	if _, err := c.Validate(sess.Token); err != nil {
		t.Fatal(err)
	}
	// Past the cache TTL (but well within the 8h session), the next
	// validate re-verifies against the authenticator and succeeds.
	*now = now.Add(31 * time.Second)
	if _, err := c.Validate(sess.Token); err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (TTL forced re-verification)", hits, misses)
	}
	// Past the SESSION expiry, a cached entry must not resurrect it.
	if _, err := c.Validate(sess.Token); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(9 * time.Hour)
	if _, err := c.Validate(sess.Token); err == nil {
		t.Fatal("expired session validated from cache")
	}
}

func TestSessionCacheLogout(t *testing.T) {
	a, c, _ := cacheFixture(t)
	sess, _ := a.LoginLocal("alice", "correct-horse-battery")
	if _, err := c.Validate(sess.Token); err != nil {
		t.Fatal(err)
	}
	// Logout invalidates both the authenticator and the cache; the
	// very next request with the dead token must be refused.
	a.Logout(sess.Token)
	c.Invalidate(sess.Token)
	if _, err := c.Validate(sess.Token); err == nil {
		t.Fatal("logged-out token validated from cache")
	}
}

// A failed re-verification (e.g. token logged out elsewhere) drops
// any cached copy so it cannot be served after the TTL window races.
func TestSessionCacheDropsOnAuthFailure(t *testing.T) {
	a, c, now := cacheFixture(t)
	sess, _ := a.LoginLocal("alice", "correct-horse-battery")
	if _, err := c.Validate(sess.Token); err != nil {
		t.Fatal(err)
	}
	a.Logout(sess.Token) // bypass the cache's own Invalidate
	*now = now.Add(31 * time.Second)
	if _, err := c.Validate(sess.Token); err == nil {
		t.Fatal("dead token validated")
	}
	if _, err := c.Validate(sess.Token); err == nil {
		t.Fatal("dead token validated from residual cache entry")
	}
}

func TestSessionCacheBounded(t *testing.T) {
	a, _, _ := cacheFixture(t)
	c := NewSessionCache(a, 4, time.Minute)
	var tokens []string
	for i := 0; i < 10; i++ {
		if err := a.vault.Create(User{Username: fmt.Sprintf("u%d", i), Role: RoleUser}, "correct-horse-battery"); err != nil {
			t.Fatal(err)
		}
		sess, err := a.LoginLocal(fmt.Sprintf("u%d", i), "correct-horse-battery")
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, sess.Token)
		if _, err := c.Validate(sess.Token); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, want <= 4", n)
	}
	// Evicted tokens still validate (via the authenticator) — eviction
	// costs a re-verification, never correctness.
	for _, tok := range tokens {
		if _, err := c.Validate(tok); err != nil {
			t.Fatalf("evicted token failed validation: %v", err)
		}
	}
}
