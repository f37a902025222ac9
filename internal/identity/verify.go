package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"math/big"
	"sync"

	"bcrdb/internal/identity/edwards25519"
)

// The one signature predicate. Every Ed25519 check in the network — the
// execute stage, the execute-order door's and the block intake's batches
// and their halves, orderer and checkpoint signatures — decides by ZIP-215
// (Chalkias et al., "Taming the many EdDSAs", 2020):
//
//   - the cofactored equation [8]([S]B − R − [k]A) = O, with
//     k = SHA-512(R ‖ A ‖ M) mod ℓ over the encodings as received;
//   - A and R may be non-canonical encodings, and of any order;
//   - S must be below ℓ.
//
// Honest signatures verify exactly as under crypto/ed25519. A crafted one
// can differ: torsion in R or A, or a non-canonical R, fails the
// cofactorless check the standard library makes and may pass this one.
// A batch forces the cofactored rule — random linear combinations only
// agree with the single check when both ignore torsion — so the single
// check uses it too, and a batch and a single check always agree. Every
// replica must run this rule: a replica checking the cofactorless way
// would abort a transaction its peers commit.

// groupOrder is ℓ = 2^252 + 27742317777372353535851937790883648493.
var groupOrder, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// Signed is one signature to check: sig over msg by the holder of pub.
type Signed struct {
	Pub ed25519.PublicKey
	Msg []byte
	Sig []byte
}

// sigTerms is a signature decoded for the equation: S and k as integers
// below ℓ, A and R as points.
type sigTerms struct {
	s, k *big.Int
	a    *edwards25519.Point
	r    edwards25519.Point
}

// decode parses a signature; false means it fails the predicate before
// any curve arithmetic (wrong length, S ≥ ℓ, or an A or R off the curve).
func (t *sigTerms) decode(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	if t.s = leInt(sig[32:]); t.s.Cmp(groupOrder) >= 0 {
		return false
	}
	if t.a = decodeKey(pub); t.a == nil {
		return false
	}
	if _, err := t.r.SetBytes(sig[:32]); err != nil {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(msg)
	t.k = leInt(h.Sum(nil))
	t.k.Mod(t.k, groupOrder)
	return true
}

var scalarOne = [32]byte{1}

// cofactoredCheck is the equation every check evaluates, single or
// batch; a package test counts the equations a batch costs through it.
var cofactoredCheck = edwards25519.CofactoredCheck

// check is the single-signature equation.
func (t *sigTerms) check() bool {
	s := leBytes(t.s)
	return cofactoredCheck(&s, [][32]byte{leBytes(t.k), scalarOne}, []*edwards25519.Point{t.a, &t.r})
}

// verify is the predicate for one signature.
func verify(pub, msg, sig []byte) bool {
	var t sigTerms
	return t.decode(pub, msg, sig) && t.check()
}

// verifyBatch returns each member's verdict under verify. It decodes
// every member, then decides all that decode with one equation (settle);
// a failed equation is halved until each forgery stands alone.
func verifyBatch(batch []Signed) []bool {
	ok := make([]bool, len(batch))
	terms := make([]sigTerms, len(batch))
	var members []int
	for i, m := range batch {
		if terms[i].decode(m.Pub, m.Msg, m.Sig) {
			members = append(members, i)
		}
	}
	settle(terms, members, ok)
	return ok
}

// settle sets ok[i] for every i in members. It checks them with one
// equation,
//
//	[8]([Σ zᵢsᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢkᵢ]Aᵢ) = O,
//
// where each zᵢ is a fresh random 128-bit value and the terms of members
// signing with one key fold into one point. The equation holds when
// every member verifies; when one does not, it fails but with
// probability 2^-128, and each half is then settled alone, down to
// single checks. So n honest members cost one equation, and k forgeries
// among them at most 2k⌈log₂n⌉ + 1.
func settle(terms []sigTerms, members []int, ok []bool) {
	if len(members) < 2 {
		for _, i := range members {
			ok[i] = terms[i].check()
		}
		return
	}
	if batchCheck(terms, members) {
		for _, i := range members {
			ok[i] = true
		}
		return
	}
	half := len(members) / 2
	settle(terms, members[:half], ok)
	settle(terms, members[half:], ok)
}

// batchCheck is settle's one equation over members, with fresh zᵢ.
func batchCheck(terms []sigTerms, members []int) bool {
	z := make([]byte, 16*len(members))
	if _, err := rand.Read(z); err != nil {
		panic("identity: crypto/rand: " + err.Error())
	}
	sum := new(big.Int)
	scalars := make([][32]byte, 0, 2*len(members))
	points := make([]*edwards25519.Point, 0, 2*len(members))
	keyTerm := make(map[*edwards25519.Point]*big.Int) // Σ zᵢkᵢ per key
	for j, i := range members {
		t := &terms[i]
		zi := leInt(z[16*j : 16*(j+1)])
		sum.Add(sum, new(big.Int).Mul(zi, t.s))
		scalars = append(scalars, leBytes(zi))
		points = append(points, &t.r)
		zk := new(big.Int).Mul(zi, t.k)
		if acc := keyTerm[t.a]; acc != nil {
			acc.Add(acc, zk)
		} else {
			keyTerm[t.a] = zk
		}
	}
	for a, zk := range keyTerm {
		scalars = append(scalars, leBytes(zk.Mod(zk, groupOrder)))
		points = append(points, a)
	}
	s := leBytes(sum.Mod(sum, groupOrder))
	return cofactoredCheck(&s, scalars, points)
}

// Decoded public keys. Decoding a point is a square root, about a fifth
// of a batch member's cost and a tenth of a single check, and the
// network has few keys, so each is decoded once. The cache has two
// generations, like the verification memo, so a flood of distinct keys
// cannot grow it. Decoded points are only read.
const keyCacheCap = 1024

var keyCache struct {
	mu         sync.Mutex
	young, old map[[32]byte]*edwards25519.Point
}

// decodeKey returns the point pub encodes, or nil if it is not one.
func decodeKey(pub []byte) *edwards25519.Point {
	k := [32]byte(pub)
	keyCache.mu.Lock()
	a := keyCache.young[k]
	if a == nil {
		a = keyCache.old[k]
	}
	keyCache.mu.Unlock()
	if a != nil {
		return a
	}
	a = new(edwards25519.Point)
	if _, err := a.SetBytes(pub); err != nil {
		return nil
	}
	keyCache.mu.Lock()
	if len(keyCache.young) >= keyCacheCap {
		keyCache.old, keyCache.young = keyCache.young, nil
	}
	if keyCache.young == nil {
		keyCache.young = make(map[[32]byte]*edwards25519.Point)
	}
	keyCache.young[k] = a
	keyCache.mu.Unlock()
	return a
}

// leInt reads a little-endian unsigned integer.
func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i, c := range b {
		be[len(b)-1-i] = c
	}
	return new(big.Int).SetBytes(be)
}

// leBytes writes x, which is below 2^256, as 32 little-endian bytes.
func leBytes(x *big.Int) [32]byte {
	var be, le [32]byte
	x.FillBytes(be[:])
	for i, c := range be {
		le[31-i] = c
	}
	return le
}
