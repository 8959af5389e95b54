package auth

import (
	"fmt"
	"sync"
	"time"
)

// Session is a signed-in user's session on an instance.
type Session struct {
	Token    string
	Username string
	Role     Role
	Via      string // "local" or the SSO source name
	Expires  time.Time
}

// Authenticator is one instance's authentication service: a local
// vault plus zero or more trusted SSO sources. It mirrors the paper's
// Figure 4: "User Group R authenticates directly on the XDMoD
// instance; User Group S authenticates to the same instance using
// web-browser Single-Sign On".
type Authenticator struct {
	vault   *Vault
	now     func() time.Time
	ttl     time.Duration
	mu      sync.RWMutex
	sources map[string]SSOSource // by source name
	tokens  map[string]Session
	// sweepAt is the token count at which a login next drops expired
	// sessions; see newSession.
	sweepAt int
}

// minSweepTokens is the smallest token count at which a login sweeps
// expired sessions.
const minSweepTokens = 64

// NewAuthenticator creates an authenticator over a vault.
func NewAuthenticator(v *Vault) *Authenticator {
	return &Authenticator{
		vault:   v,
		now:     time.Now,
		ttl:     8 * time.Hour,
		sources: make(map[string]SSOSource),
		tokens:  make(map[string]Session),
		sweepAt: minSweepTokens,
	}
}

// Vault returns the underlying account vault.
func (a *Authenticator) Vault() *Vault { return a.vault }

// AddSSOSource registers a trusted SSO source. Historically "an
// installation can specify only a single SSO authentication source"
// (paper §II-D2); multiple sources — the paper's planned enhancement —
// are supported here.
func (a *Authenticator) AddSSOSource(s SSOSource) error {
	if s.Name == "" || s.Issuer == "" || s.Secret == "" {
		return fmt.Errorf("auth: SSO source needs name, issuer and secret")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.sources[s.Name]; ok {
		return fmt.Errorf("auth: SSO source %q already configured", s.Name)
	}
	a.sources[s.Name] = s
	return nil
}

// LoginLocal authenticates with the instance's own password store.
func (a *Authenticator) LoginLocal(username, password string) (Session, error) {
	u, err := a.vault.Verify(username, password)
	if err != nil {
		return Session{}, err
	}
	return a.newSession(u, "local"), nil
}

// LoginSSO validates an assertion against every configured source and
// signs the subject in, auto-provisioning a local account on first
// sign-on. When the matched source supplies metadata, the account's
// display fields are (re)populated from the assertion — the paper's
// "more customized user experience for first-time XDMoD users"
// (§II-D1).
func (a *Authenticator) LoginSSO(assertion Assertion) (Session, error) {
	a.mu.RLock()
	var matched *SSOSource
	var lastErr error
	for _, s := range a.sources {
		s := s
		if err := s.ValidateAssertion(assertion, a.now()); err == nil {
			matched = &s
			break
		} else {
			lastErr = err
		}
	}
	a.mu.RUnlock()
	if matched == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("auth: no SSO sources configured")
		}
		return Session{}, fmt.Errorf("auth: SSO login failed: %w", lastErr)
	}

	u, exists := a.vault.Get(assertion.Subject)
	if !exists {
		u = User{Username: assertion.Subject, Role: RoleUser, SSOManaged: true}
	}
	if matched.Metadata || !exists {
		if assertion.DisplayName != "" {
			u.DisplayName = assertion.DisplayName
		}
		if assertion.Email != "" {
			u.Email = assertion.Email
		}
	}
	if err := a.vault.Upsert(u); err != nil {
		return Session{}, err
	}
	return a.newSession(u, matched.Name), nil
}

func (a *Authenticator) newSession(u User, via string) Session {
	now := a.now()
	s := Session{
		Token:    randomToken(),
		Username: u.Username,
		Role:     u.Role,
		Via:      via,
		Expires:  now.Add(a.ttl),
	}
	a.mu.Lock()
	// A token nobody presents again is otherwise never dropped. Sweeping
	// whenever the map has doubled since the last sweep keeps it within
	// twice the live sessions (plus the floor) at amortized O(1) a login.
	if len(a.tokens) >= a.sweepAt {
		for tok, old := range a.tokens {
			if now.After(old.Expires) {
				delete(a.tokens, tok)
			}
		}
		a.sweepAt = max(2*len(a.tokens), minSweepTokens)
	}
	a.tokens[s.Token] = s
	a.mu.Unlock()
	return s
}

// Validate resolves a session token.
func (a *Authenticator) Validate(token string) (Session, error) {
	a.mu.RLock()
	s, ok := a.tokens[token]
	a.mu.RUnlock()
	if !ok {
		return Session{}, fmt.Errorf("auth: unknown session token")
	}
	if a.now().After(s.Expires) {
		a.mu.Lock()
		delete(a.tokens, token)
		a.mu.Unlock()
		return Session{}, fmt.Errorf("auth: session expired")
	}
	return s, nil
}

// Logout invalidates a token.
func (a *Authenticator) Logout(token string) {
	a.mu.Lock()
	delete(a.tokens, token)
	a.mu.Unlock()
}
