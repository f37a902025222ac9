package identity

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bcrdb/internal/identity/edwards25519"
)

// crypto/ed25519.Verify is the oracle here: honest signatures and their
// corruptions must get its verdict, and the crafted vectors below state
// where the ZIP-215 rule departs from its cofactorless check.

// TestVerifyAgreesWithStdlib: on random keys and messages an honest
// signature is accepted by both predicates, and every single-bit flip of
// R, S, A or the message, and S + ℓ, is rejected by both.
func TestVerifyAgreesWithStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		priv := ed25519.NewKeyFromSeed(seed)
		pub := priv.Public().(ed25519.PublicKey)
		msg := make([]byte, 1+rng.Intn(40))
		rng.Read(msg)
		sig := ed25519.Sign(priv, msg)
		agree := func(what string, pub, msg, sig []byte, want bool) {
			t.Helper()
			if got := ed25519.Verify(pub, msg, sig); got != want {
				t.Fatalf("%s: stdlib verdict %v, want %v", what, got, want)
			}
			if got := verify(pub, msg, sig); got != want {
				t.Fatalf("%s: ZIP-215 verdict %v, want %v", what, got, want)
			}
		}
		agree("honest", pub, msg, sig, true)
		flips := func(name string, b []byte, check func()) {
			for bit := 0; bit < 8*len(b); bit++ {
				b[bit/8] ^= 1 << (bit % 8)
				check()
				b[bit/8] ^= 1 << (bit % 8)
			}
		}
		flips("R", sig[:32], func() { agree("flipped R", pub, msg, sig, false) })
		flips("S", sig[32:], func() { agree("flipped S", pub, msg, sig, false) })
		key := append([]byte(nil), pub...)
		flips("A", key, func() { agree("flipped A", key, msg, sig, false) })
		flips("M", msg, func() { agree("flipped message", pub, msg, sig, false) })
		agree("S + ℓ", pub, msg, addOrder(sig), false)
	}
}

// addOrder returns sig with ℓ added to S (which stays below 2^256).
func addOrder(sig []byte) []byte {
	s := leInt(sig[32:])
	s.Add(s, groupOrder)
	out := append([]byte(nil), sig[:32]...)
	b := leBytes(s)
	return append(out, b[:]...)
}

// The eight points of small order, canonically encoded.
var smallOrder = []string{
	"0100000000000000000000000000000000000000000000000000000000000000", // identity
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2: (0, -1)
	"0000000000000000000000000000000000000000000000000000000000000000", // order 4
	"0000000000000000000000000000000000000000000000000000000000000080", // order 4
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", // order 8
}

// Non-canonical encodings of small-order points.
var (
	identityYp1   = "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f" // y = p + 1
	identityNegX  = "0100000000000000000000000000000000000000000000000000000000000080" // x = -0
	order4Yp      = "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f" // y = p
	order2NegZero = "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff" // (-0, -1)
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestSmallOrderTable checks the table against an independent affine
// implementation in math/big: each point decodes, is distinct, and eight
// times it is the identity.
func TestSmallOrderTable(t *testing.T) {
	seen := map[string]bool{}
	for _, enc := range append(smallOrder, identityYp1, identityNegX, order4Yp, order2NegZero) {
		p, ok := refDecode(mustHex(enc))
		if !ok {
			t.Fatalf("%s does not decode", enc)
		}
		if q := refMul(big.NewInt(8), p); !q.isIdentity() {
			t.Fatalf("%s: [8]P = %v, want the identity", enc, q)
		}
		seen[p.String()] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d distinct small-order points, want 8", len(seen))
	}
}

// sigVector is a crafted signature with its verdict under ZIP-215 and
// under the standard library's cofactorless check.
type sigVector struct {
	name           string
	pub, msg, sig  []byte
	zip215, stdlib bool
}

func smallOrderSig(r string, s []byte) []byte {
	return append(mustHex(r), s...)
}

// torsionSig signs msg honestly with seed's key, then adds the
// small-order point t to R and re-signs: R' = rB + T,
// S' = r + SHA-512(R' ‖ A ‖ M)·a. The cofactorless equation is off by T.
func torsionSig(seed, msg []byte, t string) (pub, sig []byte) {
	priv := ed25519.NewKeyFromSeed(seed)
	pub = priv.Public().(ed25519.PublicKey)
	h := sha512.Sum512(seed)
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	a := leInt(h[:32])
	nonce := sha512.New()
	nonce.Write(h[32:])
	nonce.Write(msg)
	r := leInt(nonce.Sum(nil))
	r.Mod(r, groupOrder)

	R, _ := refDecode(ed25519.Sign(priv, msg)[:32])
	T, _ := refDecode(mustHex(t))
	R2 := refEncode(refAdd(R, T))
	k := sha512.New()
	k.Write(R2)
	k.Write(pub)
	k.Write(msg)
	kk := leInt(k.Sum(nil))
	S := new(big.Int).Mul(kk.Mod(kk, groupOrder), a)
	S.Add(S, r).Mod(S, groupOrder)
	sb := leBytes(S)
	return pub, append(R2, sb[:]...)
}

func zipVectors(t *testing.T) []sigVector {
	t.Helper()
	msg := []byte("zip215")
	zero := make([]byte, 32)
	order := leBytes(groupOrder)
	seed := bytes.Repeat([]byte{7}, ed25519.SeedSize)
	var vs []sigVector
	// Small-order A and R with S = 0: [8](0·B − R − kA) = O for any k.
	// The cofactorless check needs −kA = R exactly, so it accepts only
	// where k mod the orders lines up.
	for i, a := range smallOrder {
		for j, r := range smallOrder {
			vs = append(vs, sigVector{
				name: fmt.Sprintf("small-order A%d, R%d, S=0", i, j),
				pub:  mustHex(a), msg: msg, sig: smallOrderSig(r, zero),
				zip215: true, stdlib: stdlibSmallOrder[i][j],
			})
		}
	}
	for i, tor := range smallOrder[1:] {
		pub, sig := torsionSig(seed, msg, tor)
		vs = append(vs, sigVector{name: fmt.Sprintf("torsion T%d added to an honest R", i+1),
			pub: pub, msg: msg, sig: sig, zip215: true, stdlib: false})
	}
	pub, sig := torsionSig(seed, msg, smallOrder[0])
	vs = append(vs,
		sigVector{name: "identity added to an honest R (the honest signature)",
			pub: pub, msg: msg, sig: sig, zip215: true, stdlib: true},
		sigVector{name: "non-canonical R: identity as y = p+1",
			pub: mustHex(smallOrder[0]), msg: msg, sig: smallOrderSig(identityYp1, zero), zip215: true, stdlib: false},
		sigVector{name: "non-canonical R: identity with x = -0",
			pub: mustHex(smallOrder[0]), msg: msg, sig: smallOrderSig(identityNegX, zero), zip215: true, stdlib: false},
		sigVector{name: "non-canonical R: order 4 as y = p",
			pub: mustHex(smallOrder[0]), msg: msg, sig: smallOrderSig(order4Yp, zero), zip215: true, stdlib: false},
		sigVector{name: "non-canonical R: order 2 with x = -0",
			pub: mustHex(smallOrder[0]), msg: msg, sig: smallOrderSig(order2NegZero, zero), zip215: true, stdlib: false},
		sigVector{name: "non-canonical A: identity as y = p+1",
			pub: mustHex(identityYp1), msg: msg, sig: smallOrderSig(smallOrder[0], zero), zip215: true, stdlib: true},
		sigVector{name: "non-canonical A: identity with x = -0",
			pub: mustHex(identityNegX), msg: msg, sig: smallOrderSig(smallOrder[0], zero), zip215: true, stdlib: true},
		sigVector{name: "S = ℓ on small-order A and R",
			pub: mustHex(smallOrder[0]), msg: msg, sig: smallOrderSig(smallOrder[0], order[:]), zip215: false, stdlib: false},
		sigVector{name: "S + ℓ on a torsion-free signature",
			pub: pub, msg: msg, sig: addOrder(sig), zip215: false, stdlib: false},
	)
	return vs
}

// stdlibSmallOrder[i][j] is the cofactorless verdict on small-order A i
// and R j with S = 0 over the message "zip215".
var stdlibSmallOrder = [8][8]bool{
	{true, false, false, false, false, false, false, false},
	{true, false, false, false, false, false, false, false},
	{false, false, true, false, false, false, false, false},
	{false, false, false, true, false, false, false, false},
	{false, false, false, false, false, false, true, false},
	{true, false, false, false, false, false, true, false},
	{false, false, true, false, false, false, true, false},
	{false, false, false, false, true, false, false, true},
}

// TestZIP215Vectors pins the verdict of each crafted vector under both
// rules, single and in a batch of honest neighbours.
func TestZIP215Vectors(t *testing.T) {
	for _, v := range zipVectors(t) {
		if got := verify(v.pub, v.msg, v.sig); got != v.zip215 {
			t.Errorf("%s: ZIP-215 verdict %v, want %v", v.name, got, v.zip215)
		}
		if got := ed25519.Verify(v.pub, v.msg, v.sig); got != v.stdlib {
			t.Errorf("%s: stdlib verdict %v, pinned %v", v.name, got, v.stdlib)
		}
		batch := honestBatch(5)
		batch = append(batch[:2], append([]Signed{{v.pub, v.msg, v.sig}}, batch[2:]...)...)
		for i, ok := range verifyBatch(batch) {
			if want := i != 2 || v.zip215; ok != want {
				t.Errorf("%s: member %d of a batch got %v, want %v", v.name, i, ok, want)
			}
		}
	}
}

func honestBatch(n int) []Signed {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{3}, ed25519.SeedSize))
	out := make([]Signed, n)
	for i := range out {
		msg := []byte(fmt.Sprintf("honest %d", i))
		out[i] = Signed{priv.Public().(ed25519.PublicKey), msg, ed25519.Sign(priv, msg)}
	}
	return out
}

// FuzzBatchAgreesWithSingle: whatever the members, each one's verdict in
// a batch (the equation, then single checks if it fails) is its single
// verdict. The input picks each member's key (one of three, so keys
// repeat and fold), and mutates its signature: a flipped bit, a
// small-order or non-canonical R, S raised by ℓ, or raw bytes.
func FuzzBatchAgreesWithSingle(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{6, 0, 0, 0, 1, 0, 2, 3, 9, 1, 4, 2, 5})
	f.Add([]byte{3, 1, 6, 2, 7, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var keys []ed25519.PrivateKey
		for k := byte(0); k < 3; k++ {
			keys = append(keys, ed25519.NewKeyFromSeed(bytes.Repeat([]byte{k + 1}, ed25519.SeedSize)))
		}
		n := 1 + int(data[0])%12
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		batch := make([]Signed, n)
		for i := range batch {
			priv := keys[int(next())%len(keys)]
			msg := []byte(fmt.Sprintf("member %d", i))
			m := Signed{priv.Public().(ed25519.PublicKey), msg, ed25519.Sign(priv, msg)}
			switch op := next(); op % 8 {
			case 1:
				m.Sig[int(op)%64] ^= 1 << (op % 8)
			case 2:
				copy(m.Sig, mustHex(smallOrder[int(op/8)%8]))
			case 3:
				copy(m.Sig, mustHex(identityYp1))
				m.Pub = mustHex(smallOrder[int(op/8)%8])
			case 4:
				m.Sig = addOrder(m.Sig)
			case 5:
				for j := range m.Sig {
					m.Sig[j] = next()
				}
			case 6:
				m.Pub = mustHex(smallOrder[int(op/8)%8])
				m.Sig = append(mustHex(smallOrder[int(op/64)%8]), make([]byte, 32)...)
			case 7:
				m.Sig = m.Sig[:int(op)%64]
			}
			batch[i] = m
		}
		for i, ok := range verifyBatch(batch) {
			if single := verify(batch[i].Pub, batch[i].Msg, batch[i].Sig); ok != single {
				t.Fatalf("member %d of %d: batch verdict %v, single %v", i, n, ok, single)
			}
		}
	})
}

// TestFailedBatchIsHalved counts the equations a batch of 32 costs: one
// when every member is honest, and with one forgery, wherever it sits,
// at most 2·log₂32 + 1 = 11 rather than the 33 of checking every member
// alone. Each member keeps its single verdict.
func TestFailedBatchIsHalved(t *testing.T) {
	var equations int
	orig := cofactoredCheck
	cofactoredCheck = func(s *[32]byte, scalars [][32]byte, points []*edwards25519.Point) bool {
		equations++
		return orig(s, scalars, points)
	}
	t.Cleanup(func() { cofactoredCheck = orig })

	const n = 32
	equations = 0
	for i, ok := range verifyBatch(honestBatch(n)) {
		if !ok {
			t.Fatalf("honest member %d rejected", i)
		}
	}
	if equations != 1 {
		t.Fatalf("an honest batch of %d cost %d equations, want 1", n, equations)
	}
	for forged := 0; forged < n; forged++ {
		batch := honestBatch(n)
		batch[forged].Msg = []byte("forged")
		equations = 0
		for i, ok := range verifyBatch(batch) {
			if ok != (i != forged) {
				t.Fatalf("forgery at %d: member %d got %v", forged, i, ok)
			}
		}
		if equations > 2*5+1 {
			t.Fatalf("one forgery at %d in %d cost %d equations, want at most 11", forged, n, equations)
		}
	}
}

// BenchmarkVerifyBatch is the per-signature cost of a batch by chunk
// size, with one key and with a key per member, beside the single check
// and the standard library's.
func BenchmarkVerifyBatch(b *testing.B) {
	run := func(b *testing.B, n, keys int) {
		batch := make([]Signed, n)
		for i := range batch {
			priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{byte(i%keys + 1)}, ed25519.SeedSize))
			msg := []byte(fmt.Sprintf("message %d", i))
			batch[i] = Signed{priv.Public().(ed25519.PublicKey), msg, ed25519.Sign(priv, msg)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			verifyBatch(batch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*n), "us/sig")
	}
	for _, n := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("one-key/%d", n), func(b *testing.B) { run(b, n, 1) })
	}
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("distinct-keys/%d", n), func(b *testing.B) { run(b, n, n) })
	}
	m := honestBatch(1)[0]
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verify(m.Pub, m.Msg, m.Sig)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ed25519.Verify(m.Pub, m.Msg, m.Sig)
		}
	})
}

// An independent affine implementation of the curve in math/big, slow
// and simple, for building and checking the vectors.

var (
	refP      = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	refD      = refMod(new(big.Int).Mul(big.NewInt(-121665), new(big.Int).ModInverse(big.NewInt(121666), refP)))
	refSqrtM1 = new(big.Int).Exp(big.NewInt(2), new(big.Int).Div(new(big.Int).Sub(refP, big.NewInt(1)), big.NewInt(4)), refP)
)

type refPoint struct{ x, y *big.Int }

func (p refPoint) isIdentity() bool { return p.x.Sign() == 0 && p.y.Cmp(big.NewInt(1)) == 0 }
func (p refPoint) String() string   { return p.x.String() + "," + p.y.String() }

func refMod(x *big.Int) *big.Int { return x.Mod(x, refP) }

// refDecode accepts what ZIP-215 accepts: y ≥ p, and x = 0 with the sign
// bit set.
func refDecode(b []byte) (refPoint, bool) {
	e := append([]byte(nil), b...)
	sign := e[31] >> 7
	e[31] &= 127
	y := refMod(leInt(e))
	y2 := refMod(new(big.Int).Mul(y, y))
	u := refMod(new(big.Int).Sub(y2, big.NewInt(1)))
	v := refMod(new(big.Int).Add(new(big.Int).Mul(refD, y2), big.NewInt(1)))
	x2 := refMod(new(big.Int).Mul(u, new(big.Int).ModInverse(v, refP)))
	x := new(big.Int).Exp(x2, new(big.Int).Div(new(big.Int).Add(refP, big.NewInt(3)), big.NewInt(8)), refP)
	if refMod(new(big.Int).Mul(x, x)).Cmp(x2) != 0 {
		x = refMod(x.Mul(x, refSqrtM1))
	}
	if refMod(new(big.Int).Mul(x, x)).Cmp(x2) != 0 {
		return refPoint{}, false
	}
	if uint8(x.Bit(0)) != sign {
		x = refMod(x.Neg(x))
	}
	return refPoint{x, y}, true
}

func refEncode(p refPoint) []byte {
	b := leBytes(p.y)
	b[31] |= byte(p.x.Bit(0)) << 7
	return b[:]
}

// refAdd is the complete twisted Edwards addition law for a = -1.
func refAdd(p, q refPoint) refPoint {
	xx := new(big.Int).Mul(p.x, q.x)
	yy := new(big.Int).Mul(p.y, q.y)
	dxy := refMod(new(big.Int).Mul(refD, refMod(new(big.Int).Mul(xx, yy))))
	one := big.NewInt(1)
	x := new(big.Int).Add(new(big.Int).Mul(p.x, q.y), new(big.Int).Mul(p.y, q.x))
	x.Mul(x, new(big.Int).ModInverse(refMod(new(big.Int).Add(one, dxy)), refP))
	y := new(big.Int).Add(yy, xx)
	y.Mul(y, new(big.Int).ModInverse(refMod(new(big.Int).Sub(one, dxy)), refP))
	return refPoint{refMod(x), refMod(y)}
}

func refMul(k *big.Int, p refPoint) refPoint {
	acc := refPoint{big.NewInt(0), big.NewInt(1)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = refAdd(acc, acc)
		if k.Bit(i) == 1 {
			acc = refAdd(acc, p)
		}
	}
	return acc
}
