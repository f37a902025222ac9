package identity

import (
	"errors"
	"testing"
)

func mustSigner(t *testing.T, name, org string, role Role) *Signer {
	t.Helper()
	s, err := NewSigner(name, org, role, nil)
	if err != nil {
		t.Fatalf("NewSigner(%s): %v", name, err)
	}
	return s
}

func TestSignAndVerify(t *testing.T) {
	s := mustSigner(t, "alice", "org1", RoleClient)
	msg := []byte("transfer 100")
	sig := s.Sign(msg)
	if !s.Identity.Verify(msg, sig) {
		t.Error("signature should verify")
	}
	if s.Identity.Verify([]byte("transfer 999"), sig) {
		t.Error("signature should not verify for altered message")
	}
	sig[0] ^= 0xFF
	if s.Identity.Verify(msg, sig) {
		t.Error("corrupted signature should not verify")
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	a := mustSigner(t, "alice", "org1", RoleClient)
	if err := r.Register(a.Public()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(a.Public()); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate Register err = %v, want ErrDuplicate", err)
	}
	id, err := r.Lookup("alice")
	if err != nil || id.Org != "org1" {
		t.Errorf("Lookup = %+v, %v", id, err)
	}
	if _, err := r.Lookup("bob"); !errors.Is(err, ErrUnknownIdentity) {
		t.Errorf("Lookup missing err = %v", err)
	}
}

func TestRegistryVerifyBy(t *testing.T) {
	r := NewRegistry()
	a := mustSigner(t, "alice", "org1", RoleClient)
	b := mustSigner(t, "bob", "org2", RoleClient)
	_ = r.Register(a.Public())
	_ = r.Register(b.Public())

	msg := []byte("hello")
	if err := r.VerifyBy("alice", msg, a.Sign(msg)); err != nil {
		t.Errorf("VerifyBy(alice) = %v", err)
	}
	if err := r.VerifyBy("alice", msg, b.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-signer VerifyBy err = %v", err)
	}
	if err := r.VerifyBy("carol", msg, a.Sign(msg)); !errors.Is(err, ErrUnknownIdentity) {
		t.Errorf("unknown VerifyBy err = %v", err)
	}
}

func TestRegistryClone(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(mustSigner(t, "alice", "org1", RoleClient).Public())
	c := r.Clone()
	if _, err := c.Lookup("alice"); err != nil {
		t.Errorf("clone lost alice: %v", err)
	}
	_ = c.Register(mustSigner(t, "bob", "org1", RoleClient).Public())
	if _, err := r.Lookup("bob"); err == nil {
		t.Error("Clone should be independent of original")
	}
}
