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

func TestRegistryReplaceRemove(t *testing.T) {
	r := NewRegistry()
	a1 := mustSigner(t, "alice", "org1", RoleClient)
	a2 := mustSigner(t, "alice", "org1", RoleAdmin)
	_ = r.Register(a1.Public())
	r.Replace(a2.Public())
	id, _ := r.Lookup("alice")
	if id.Role != RoleAdmin {
		t.Errorf("after Replace role = %s", id.Role)
	}
	r.Remove("alice")
	if _, err := r.Lookup("alice"); err == nil {
		t.Error("Lookup after Remove should fail")
	}
}

func TestRegistryEnumeration(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(mustSigner(t, "zed", "org2", RoleClient).Public())
	_ = r.Register(mustSigner(t, "amy", "org1", RoleAdmin).Public())
	_ = r.Register(mustSigner(t, "bob", "org1", RoleClient).Public())

	names := r.Names()
	if len(names) != 3 || names[0] != "amy" || names[1] != "bob" || names[2] != "zed" {
		t.Errorf("Names = %v", names)
	}
	all := r.All()
	if len(all) != 3 || all[0].Name != "amy" {
		t.Errorf("All = %v", all)
	}
	orgs := r.Orgs()
	if len(orgs) != 2 || orgs[0] != "org1" || orgs[1] != "org2" {
		t.Errorf("Orgs = %v", orgs)
	}
}

func TestRegistryClone(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(mustSigner(t, "alice", "org1", RoleClient).Public())
	c := r.Clone()
	c.Remove("alice")
	if _, err := r.Lookup("alice"); err != nil {
		t.Error("Clone should be independent of original")
	}
}

func TestIdentityID(t *testing.T) {
	a := mustSigner(t, "alice", "org1", RoleClient)
	b := mustSigner(t, "alice2", "org1", RoleClient)
	if a.Identity.ID() == b.Identity.ID() {
		t.Error("distinct keys should have distinct fingerprints")
	}
	if len(a.Identity.ID()) != 16 {
		t.Errorf("fingerprint length = %d", len(a.Identity.ID()))
	}
}
