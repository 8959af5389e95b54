// Package auth implements XDMoD's authentication layer as required by
// federation (paper §II-D): local password sign-on, web-style
// single-sign-on (SSO) with signed assertions from pluggable identity
// providers (the Shibboleth/Globus/Keycloak/LDAP roles), support for
// multiple SSO sources per instance and identity-provider vs
// service-provider modes (§II-D3), and the user identity mapping
// across federation members that the paper flags as future work
// (§II-D4).
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Role is a user's XDMoD role, deciding which views and metrics they
// may access (end user, PI, center staff, manager; paper §I-A).
type Role string

// Roles.
const (
	RoleUser    Role = "user"
	RolePI      Role = "pi"
	RoleStaff   Role = "center_staff"
	RoleManager Role = "manager"
)

// Valid reports whether r is a known role.
func (r Role) Valid() bool {
	switch r {
	case RoleUser, RolePI, RoleStaff, RoleManager:
		return true
	}
	return false
}

// User is one account on an XDMoD instance.
type User struct {
	Username    string
	DisplayName string
	Email       string
	Role        Role
	SSOManaged  bool // provisioned via SSO; has no local password
}

// Vault stores local accounts with salted, iterated password hashes.
type Vault struct {
	mu    sync.RWMutex
	users map[string]*vaultEntry
}

type vaultEntry struct {
	user User
	salt []byte
	hash []byte
}

// hashIterations strengthens the password hash by iterating; fixed so
// hashes stay verifiable.
const hashIterations = 4096

func hashPassword(salt []byte, password string) []byte {
	h := sha256.Sum256(append(append([]byte(nil), salt...), password...))
	for i := 1; i < hashIterations; i++ {
		h = sha256.Sum256(h[:])
	}
	return h[:]
}

// NewVault returns an empty account vault.
func NewVault() *Vault {
	return &Vault{users: make(map[string]*vaultEntry)}
}

// Create adds a local account with a password.
func (v *Vault) Create(u User, password string) error {
	if u.Username == "" {
		return fmt.Errorf("auth: username must not be empty")
	}
	if !u.Role.Valid() {
		return fmt.Errorf("auth: user %q has invalid role %q", u.Username, u.Role)
	}
	if !u.SSOManaged && len(password) < 8 {
		return fmt.Errorf("auth: password for %q must be at least 8 characters", u.Username)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.users[u.Username]; ok {
		return fmt.Errorf("auth: user %q already exists", u.Username)
	}
	e := &vaultEntry{user: u}
	if !u.SSOManaged {
		e.salt = make([]byte, 16)
		if _, err := rand.Read(e.salt); err != nil {
			return err
		}
		e.hash = hashPassword(e.salt, password)
	}
	v.users[u.Username] = e
	return nil
}

// Verify checks a local password. SSO-managed users always fail local
// verification (they have no local password), but users that hold both
// can sign in either way ("users retain the ability to authenticate
// directly on the XDMoD instance", paper §II-D).
func (v *Vault) Verify(username, password string) (User, error) {
	v.mu.RLock()
	e, ok := v.users[username]
	v.mu.RUnlock()
	if !ok {
		return User{}, fmt.Errorf("auth: unknown user %q", username)
	}
	if e.user.SSOManaged || e.hash == nil {
		return User{}, fmt.Errorf("auth: user %q has no local password", username)
	}
	if !hmac.Equal(e.hash, hashPassword(e.salt, password)) {
		return User{}, fmt.Errorf("auth: bad password for %q", username)
	}
	return e.user, nil
}

// Get returns a user by name.
func (v *Vault) Get(username string) (User, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	e, ok := v.users[username]
	if !ok {
		return User{}, false
	}
	return e.user, true
}

// Upsert creates or updates an account without touching its password
// (used by SSO auto-provisioning and metadata refresh).
func (v *Vault) Upsert(u User) error {
	if u.Username == "" {
		return fmt.Errorf("auth: username must not be empty")
	}
	if !u.Role.Valid() {
		return fmt.Errorf("auth: user %q has invalid role %q", u.Username, u.Role)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if e, ok := v.users[u.Username]; ok {
		e.user = u
		return nil
	}
	v.users[u.Username] = &vaultEntry{user: u}
	return nil
}

// randomToken returns a 32-byte random hex string.
func randomToken() string {
	b := make([]byte, 32)
	if _, err := rand.Read(b); err != nil {
		panic("auth: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b)
}
