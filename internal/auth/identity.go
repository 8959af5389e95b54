package auth

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Identity mapping across federation members (paper §II-D4):
// "consider a CCR user who also has an XSEDE allocation ... the user
// would appear twice in the federation; once as the CCR user, once as
// the XSEDE user. The work necessary to federate such user identities
// must be performed separately on the federation database". This is
// that work, implemented as the paper's stated future-release goal: a
// hub-side map from per-instance usernames to global persons, with
// automatic merging by verified email plus manual linking.

// InstanceUser identifies a username on one federation member.
type InstanceUser struct {
	Instance string
	Username string
}

func (iu InstanceUser) String() string { return iu.Instance + "/" + iu.Username }

// Person is one de-duplicated human in the federation.
type Person struct {
	ID          string
	DisplayName string
	Emails      []string
	Accounts    []InstanceUser
}

// IdentityMap maintains the person registry on the federation hub.
type IdentityMap struct {
	mu      sync.RWMutex
	nextID  int
	persons map[string]*Person      // id -> person
	byAcct  map[InstanceUser]string // account -> person id
	byEmail map[string]string       // lowercased email -> person id
}

// NewIdentityMap returns an empty identity map.
func NewIdentityMap() *IdentityMap {
	return &IdentityMap{
		persons: make(map[string]*Person),
		byAcct:  make(map[InstanceUser]string),
		byEmail: make(map[string]string),
	}
}

// Observe records an account seen in replicated data, merging it into
// an existing person when the email matches one already known
// (automatic de-duplication), and creating a new person otherwise.
// It returns the person id.
func (m *IdentityMap) Observe(acct InstanceUser, displayName, email string) (string, error) {
	if acct.Instance == "" || acct.Username == "" {
		return "", fmt.Errorf("auth: identity observation needs instance and username")
	}
	email = strings.ToLower(strings.TrimSpace(email))
	m.mu.Lock()
	defer m.mu.Unlock()

	if id, ok := m.byAcct[acct]; ok {
		p := m.persons[id]
		if email != "" && m.byEmail[email] == "" {
			p.Emails = append(p.Emails, email)
			m.byEmail[email] = id
		}
		return id, nil
	}
	if email != "" {
		if id, ok := m.byEmail[email]; ok {
			p := m.persons[id]
			p.Accounts = append(p.Accounts, acct)
			m.byAcct[acct] = id
			return id, nil
		}
	}
	m.nextID++
	id := fmt.Sprintf("person-%d", m.nextID)
	p := &Person{ID: id, DisplayName: displayName, Accounts: []InstanceUser{acct}}
	if email != "" {
		p.Emails = []string{email}
		m.byEmail[email] = id
	}
	m.persons[id] = p
	m.byAcct[acct] = id
	return id, nil
}

// Link manually merges the persons owning two accounts (the admin
// fallback when no shared email exists). The surviving person is the
// first account's.
func (m *IdentityMap) Link(a, b InstanceUser) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	idA, okA := m.byAcct[a]
	idB, okB := m.byAcct[b]
	if !okA || !okB {
		return fmt.Errorf("auth: cannot link %v and %v: unknown account", a, b)
	}
	if idA == idB {
		return nil
	}
	pa, pb := m.persons[idA], m.persons[idB]
	pa.Accounts = append(pa.Accounts, pb.Accounts...)
	pa.Emails = append(pa.Emails, pb.Emails...)
	for _, acct := range pb.Accounts {
		m.byAcct[acct] = idA
	}
	for _, e := range pb.Emails {
		m.byEmail[e] = idA
	}
	delete(m.persons, idB)
	return nil
}

// Resolve returns the person id owning an account.
func (m *IdentityMap) Resolve(acct InstanceUser) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.byAcct[acct]
	return id, ok
}

// AccountsOf returns every federation account of the person owning
// acct — the query the paper motivates: "identify all jobs run by that
// individual across all federated resources".
func (m *IdentityMap) AccountsOf(acct InstanceUser) []InstanceUser {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.byAcct[acct]
	if !ok {
		return nil
	}
	p := m.persons[id]
	out := append([]InstanceUser(nil), p.Accounts...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
