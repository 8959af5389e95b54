package auth

import (
	"strings"
	"testing"
	"time"
)

func TestVaultCreateVerify(t *testing.T) {
	v := NewVault()
	u := User{Username: "alice", DisplayName: "Alice A", Email: "alice@uni.edu", Role: RoleUser}
	if err := v.Create(u, "correct horse battery"); err != nil {
		t.Fatal(err)
	}
	got, err := v.Verify("alice", "correct horse battery")
	if err != nil {
		t.Fatal(err)
	}
	if got.Email != u.Email {
		t.Errorf("user = %+v", got)
	}
	if _, err := v.Verify("alice", "wrong"); err == nil {
		t.Error("wrong password accepted")
	}
	if _, err := v.Verify("nobody", "x"); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestVaultRejections(t *testing.T) {
	v := NewVault()
	if err := v.Create(User{Role: RoleUser}, "longenough"); err == nil {
		t.Error("empty username accepted")
	}
	if err := v.Create(User{Username: "x", Role: "wizard"}, "longenough"); err == nil {
		t.Error("bad role accepted")
	}
	if err := v.Create(User{Username: "x", Role: RoleUser}, "short"); err == nil {
		t.Error("short password accepted")
	}
	v.Create(User{Username: "x", Role: RoleUser}, "longenough")
	if err := v.Create(User{Username: "x", Role: RoleUser}, "longenough"); err == nil {
		t.Error("duplicate user accepted")
	}
}

func TestSSOManagedUserHasNoLocalPassword(t *testing.T) {
	v := NewVault()
	if err := v.Create(User{Username: "sso-user", Role: RoleUser, SSOManaged: true}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify("sso-user", ""); err == nil {
		t.Error("SSO-managed user must not verify locally")
	}
}

func idpFixture() (*IdentityProvider, SSOSource) {
	idp := NewIdentityProvider("https://idp.uni.edu/shibboleth", "s3cret")
	idp.Register("jdoe", "idp-pass", "jdoe@uni.edu", "Jane Doe", map[string]string{"department": "Physics"})
	src := SSOSource{Name: "shibboleth", Issuer: idp.Issuer, Secret: idp.Secret, Metadata: true}
	return idp, src
}

func TestIdPIssueAndValidate(t *testing.T) {
	idp, src := idpFixture()
	now := time.Date(2018, 7, 1, 12, 0, 0, 0, time.UTC)
	a, err := idp.Authenticate("jdoe", "idp-pass", now)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ValidateAssertion(a, now); err != nil {
		t.Errorf("valid assertion rejected: %v", err)
	}
	if _, err := idp.Authenticate("jdoe", "wrong", now); err == nil {
		t.Error("IdP accepted wrong password")
	}
}

func TestAssertionTampering(t *testing.T) {
	idp, src := idpFixture()
	now := time.Now()
	a, _ := idp.Authenticate("jdoe", "idp-pass", now)

	tampered := a
	tampered.Subject = "root"
	if err := src.ValidateAssertion(tampered, now); err == nil {
		t.Error("tampered subject accepted")
	}
	tampered = a
	tampered.Attributes = map[string]string{"department": "Admin"}
	if err := src.ValidateAssertion(tampered, now); err == nil {
		t.Error("tampered attributes accepted")
	}
	wrongSecret := SSOSource{Name: "x", Issuer: src.Issuer, Secret: "other"}
	if err := wrongSecret.ValidateAssertion(a, now); err == nil {
		t.Error("wrong secret accepted")
	}
	wrongIssuer := SSOSource{Name: "x", Issuer: "other", Secret: src.Secret}
	if err := wrongIssuer.ValidateAssertion(a, now); err == nil {
		t.Error("issuer mismatch accepted")
	}
}

func TestAssertionExpiry(t *testing.T) {
	idp, src := idpFixture()
	now := time.Now()
	a, _ := idp.Authenticate("jdoe", "idp-pass", now)
	if err := src.ValidateAssertion(a, now.Add(10*time.Minute)); err == nil {
		t.Error("expired assertion accepted")
	}
	if err := src.ValidateAssertion(a, now.Add(-10*time.Minute)); err == nil {
		t.Error("future assertion accepted")
	}
}

func TestLoginLocalAndSSO(t *testing.T) {
	idp, src := idpFixture()
	v := NewVault()
	v.Create(User{Username: "local1", Role: RoleUser}, "localpass123")
	a := NewAuthenticator(v)
	if err := a.AddSSOSource(src); err != nil {
		t.Fatal(err)
	}

	// Figure 4, group R: direct local sign-on.
	s1, err := a.LoginLocal("local1", "localpass123")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Via != "local" {
		t.Errorf("via = %q", s1.Via)
	}

	// Figure 4, group S: SSO sign-on with auto-provisioning.
	assertion, _ := idp.Authenticate("jdoe", "idp-pass", time.Now())
	s2, err := a.LoginSSO(assertion)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Via != "shibboleth" {
		t.Errorf("via = %q", s2.Via)
	}
	u, ok := v.Get("jdoe")
	if !ok || !u.SSOManaged {
		t.Fatalf("SSO user not provisioned: %+v ok=%v", u, ok)
	}
	// Metadata pre-population from the provider.
	if u.Email != "jdoe@uni.edu" || u.DisplayName != "Jane Doe" {
		t.Errorf("metadata not populated: %+v", u)
	}

	// Both sessions validate.
	for _, s := range []Session{s1, s2} {
		got, err := a.Validate(s.Token)
		if err != nil || got.Username != s.Username {
			t.Errorf("validate %q: %v", s.Username, err)
		}
	}
}

func TestMultipleSSOSources(t *testing.T) {
	idp1, src1 := idpFixture()
	idp2 := NewIdentityProvider("https://auth.globus.org", "globus-secret")
	idp2.Register("xsede_user", "pw", "xu@site.org", "X User", nil)
	src2 := SSOSource{Name: "globus", Issuer: idp2.Issuer, Secret: idp2.Secret}

	a := NewAuthenticator(NewVault())
	if err := a.AddSSOSource(src1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSSOSource(src2); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSSOSource(src2); err == nil {
		t.Error("duplicate source accepted")
	}
	if err := a.AddSSOSource(SSOSource{}); err == nil {
		t.Error("incomplete source accepted")
	}
	if len(a.sources) != 2 {
		t.Errorf("sources = %v", a.sources)
	}

	as1, _ := idp1.Authenticate("jdoe", "idp-pass", time.Now())
	as2, _ := idp2.Authenticate("xsede_user", "pw", time.Now())
	if _, err := a.LoginSSO(as1); err != nil {
		t.Errorf("source 1 login: %v", err)
	}
	if _, err := a.LoginSSO(as2); err != nil {
		t.Errorf("source 2 login: %v", err)
	}

	// An assertion signed by an untrusted IdP fails on every source.
	rogue := NewIdentityProvider("https://rogue.example", "rogue")
	rogue.Register("evil", "pw", "", "", nil)
	bad, _ := rogue.Authenticate("evil", "pw", time.Now())
	if _, err := a.LoginSSO(bad); err == nil {
		t.Error("rogue assertion accepted")
	}
}

func TestLoginSSONoSources(t *testing.T) {
	a := NewAuthenticator(NewVault())
	if _, err := a.LoginSSO(Assertion{}); err == nil || !strings.Contains(err.Error(), "SSO") {
		t.Errorf("got %v", err)
	}
}

func TestSessionExpiry(t *testing.T) {
	v := NewVault()
	v.Create(User{Username: "u", Role: RoleUser}, "password123")
	a := NewAuthenticator(v)
	now := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	a.now = func() time.Time { return now }
	s, err := a.LoginLocal("u", "password123")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Validate(s.Token); err != nil {
		t.Fatal(err)
	}
	now = now.Add(9 * time.Hour)
	if _, err := a.Validate(s.Token); err == nil {
		t.Error("expired session accepted")
	}
}

func TestLogout(t *testing.T) {
	v := NewVault()
	v.Create(User{Username: "u", Role: RoleUser}, "password123")
	a := NewAuthenticator(v)
	s, _ := a.LoginLocal("u", "password123")
	a.Logout(s.Token)
	if _, err := a.Validate(s.Token); err == nil {
		t.Error("logged-out session accepted")
	}
}

func TestIdentityMapMergeByEmail(t *testing.T) {
	m := NewIdentityMap()
	// The paper's example: a CCR user who also has an XSEDE allocation.
	ccr := InstanceUser{Instance: "ccr", Username: "jsperhac"}
	xsede := InstanceUser{Instance: "xsede", Username: "jm.sperhac"}
	id1, err := m.Observe(ccr, "J Sperhac", "jsperhac@buffalo.edu")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Observe(xsede, "Jeanette S", "JSperhac@buffalo.edu") // case-insensitive email match
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("accounts with matching email should merge: %s vs %s", id1, id2)
	}
	accts := m.AccountsOf(ccr)
	if len(accts) != 2 {
		t.Errorf("accounts = %v", accts)
	}
}

func TestIdentityMapDistinctWithoutEmail(t *testing.T) {
	m := NewIdentityMap()
	a := InstanceUser{Instance: "i1", Username: "u"}
	b := InstanceUser{Instance: "i2", Username: "u"}
	id1, _ := m.Observe(a, "", "")
	id2, _ := m.Observe(b, "", "")
	if id1 == id2 {
		t.Fatal("same username on different instances must stay distinct without email evidence")
	}
	// Manual link merges them.
	if err := m.Link(a, b); err != nil {
		t.Fatal(err)
	}
	ra, _ := m.Resolve(a)
	rb, _ := m.Resolve(b)
	if ra != rb {
		t.Error("link did not merge")
	}
	if len(m.persons) != 1 {
		t.Errorf("persons = %v", m.persons)
	}
	if err := m.Link(a, InstanceUser{Instance: "zz", Username: "zz"}); err == nil {
		t.Error("linking unknown account should fail")
	}
}

func TestIdentityMapObserveIdempotent(t *testing.T) {
	m := NewIdentityMap()
	acct := InstanceUser{Instance: "i", Username: "u"}
	id1, _ := m.Observe(acct, "U", "u@x.org")
	id2, _ := m.Observe(acct, "U", "u@x.org")
	if id1 != id2 {
		t.Error("re-observation created a new person")
	}
	p, ok := m.persons[id1]
	if !ok || len(p.Accounts) != 1 || len(p.Emails) != 1 {
		t.Errorf("person = %+v", p)
	}
	if _, err := m.Observe(InstanceUser{}, "", ""); err == nil {
		t.Error("empty account accepted")
	}
}

// TestExpiredTokensAreSwept: a client that logs in and never returns
// must not leave its token behind for the life of the process. Logins
// sweep expired sessions whenever the token map has doubled since the
// last sweep, so after the clock passes the TTL of 1 000 sessions, 100
// more logins leave at most twice the live sessions plus the floor.
func TestExpiredTokensAreSwept(t *testing.T) {
	v := NewVault()
	v.Create(User{Username: "u", Role: RoleUser}, "password123")
	a := NewAuthenticator(v)
	now := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	a.now = func() time.Time { return now }
	login := func(n int) []Session {
		var out []Session
		for i := 0; i < n; i++ {
			s, err := a.LoginLocal("u", "password123")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}
	login(1000)
	now = now.Add(a.ttl + time.Minute)
	live := login(100)
	a.mu.RLock()
	held := len(a.tokens)
	a.mu.RUnlock()
	if limit := 2*len(live) + minSweepTokens; held > limit {
		t.Errorf("authenticator holds %d tokens after 1000 expired and 100 live logins, want at most %d", held, limit)
	}
	for _, s := range live {
		if _, err := a.Validate(s.Token); err != nil {
			t.Fatalf("live session dropped by the sweep: %v", err)
		}
	}
}
