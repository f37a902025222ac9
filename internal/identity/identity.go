// Package identity provides the cryptographic identities of the network:
// clients, database peers and orderer nodes. It corresponds to the
// certificate infrastructure of the paper (§2(2), §3.1) and the pgCerts
// catalog table (§4.2).
//
// Keys are Ed25519 (stdlib). An Identity is the public half plus
// human-readable metadata (name, organization, role); a Signer also holds
// the private key. Registries map names to identities and are the basis
// for signature verification and access control on every node.
package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Role classifies what a registered identity may do.
type Role string

// Network roles.
const (
	RoleAdmin   Role = "admin"   // org administrator: deploys contracts, manages users
	RoleClient  Role = "client"  // submits transactions
	RolePeer    Role = "peer"    // database node
	RoleOrderer Role = "orderer" // ordering service node
)

// Identity is a public identity registered with every node.
type Identity struct {
	Name   string
	Org    string
	Role   Role
	PubKey ed25519.PublicKey
}

// Verify checks sig over msg against the identity's public key.
func (id *Identity) Verify(msg, sig []byte) bool {
	return VerifyCached(id.PubKey, msg, sig)
}

// Signer is an identity together with its private key.
type Signer struct {
	Identity
	priv ed25519.PrivateKey
}

// NewSigner generates a fresh identity. rand may be nil to use crypto/rand.
func NewSigner(name, org string, role Role, rand io.Reader) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key for %s: %w", name, err)
	}
	return &Signer{
		Identity: Identity{Name: name, Org: org, Role: role, PubKey: pub},
		priv:     priv,
	}, nil
}

// Deterministic derives a signer whose key is a pure function of
// (secret, name, org, role). Every process of a multi-process cluster —
// servers and remote clients alike — derives the same key material from
// the shared cluster secret, so genesis certificates, block signatures
// and client signatures verify across process boundaries without a key
// distribution step. The secret is the trust root: anyone holding it can
// impersonate any identity, exactly like a CA private key.
func Deterministic(name, org string, role Role, secret string) (*Signer, error) {
	seed := sha256.Sum256([]byte("bcrdb/identity/v1\x00" + secret + "\x00" + name + "\x00" + org + "\x00" + string(role)))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Signer{
		Identity: Identity{Name: name, Org: org, Role: role, PubKey: priv.Public().(ed25519.PublicKey)},
		priv:     priv,
	}, nil
}

// Sign signs msg with the private key.
func (s *Signer) Sign(msg []byte) []byte { return ed25519.Sign(s.priv, msg) }

// Public returns the public identity.
func (s *Signer) Public() Identity { return s.Identity }

// Registry is the set of identities known to a node — the paper's pgCerts.
// It is safe for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	ids map[string]Identity // by Name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{ids: make(map[string]Identity)} }

// Errors returned by registry operations.
var (
	ErrUnknownIdentity = errors.New("identity: unknown identity")
	ErrDuplicate       = errors.New("identity: name already registered")
	ErrBadSignature    = errors.New("identity: signature verification failed")
)

// Register adds an identity. Names are unique.
func (r *Registry) Register(id Identity) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ids[id.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, id.Name)
	}
	r.ids[id.Name] = id
	return nil
}

// Lookup returns the identity registered under name.
func (r *Registry) Lookup(name string) (Identity, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[name]
	if !ok {
		return Identity{}, fmt.Errorf("%w: %q", ErrUnknownIdentity, name)
	}
	return id, nil
}

// VerifyBy checks that sig over msg was produced by the named identity.
func (r *Registry) VerifyBy(name string, msg, sig []byte) error {
	id, err := r.Lookup(name)
	if err != nil {
		return err
	}
	if !id.Verify(msg, sig) {
		return fmt.Errorf("%w: signer %q", ErrBadSignature, name)
	}
	return nil
}

// Clone returns an independent copy of the registry (used when
// bootstrapping nodes with the same initial certificate material, §3.7).
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	for n, id := range r.ids {
		out.ids[n] = id
	}
	return out
}
