package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"sync"
	"testing"
)

func testKeyPair(t *testing.T) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestVerifyCachedMatchesVerify(t *testing.T) {
	pub, priv := testKeyPair(t)
	msg := []byte("hello")
	sig := ed25519.Sign(priv, msg)

	if !VerifyCached(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	// Second call answers from the memo and must agree.
	if !VerifyCached(pub, msg, sig) {
		t.Fatal("cached verdict flipped for a valid signature")
	}
	// A tampered message must fail — and keep failing from the memo,
	// since failed verifications are cached too.
	bad := []byte("hellO")
	for i := 0; i < 2; i++ {
		if VerifyCached(pub, bad, sig) {
			t.Fatal("tampered message accepted")
		}
	}
	if VerifyCached(pub[:16], msg, sig) {
		t.Fatal("truncated key accepted")
	}
}

func TestVerifyCacheStatsCount(t *testing.T) {
	pub, priv := testKeyPair(t)
	msg := []byte("stats probe")
	sig := ed25519.Sign(priv, msg)

	h0, m0 := VerifyCacheStats()
	VerifyCached(pub, msg, sig) // first sight: miss
	_, m1 := VerifyCacheStats()
	if m1 != m0+1 {
		t.Fatalf("misses after first call = %d, want %d", m1, m0+1)
	}
	VerifyCached(pub, msg, sig) // repeat: hit
	h2, _ := VerifyCacheStats()
	if h2 != h0+1 {
		t.Fatalf("hits after repeat call = %d, want %d", h2, h0+1)
	}
}

// TestVerifyCachedConcurrent hits the sharded memo from many goroutines
// with a mix of shared and private signatures; with -race this audits
// the per-shard locking that replaced the global cache mutex.
func TestVerifyCachedConcurrent(t *testing.T) {
	pub, priv := testKeyPair(t)
	const shared = 32
	msgs := make([][]byte, shared)
	sigs := make([][]byte, shared)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8), 'm'}
		sigs[i] = ed25519.Sign(priv, msgs[i])
	}

	const workers = 8
	var wg sync.WaitGroup
	fail := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				i := (w + r) % shared
				if !VerifyCached(pub, msgs[i], sigs[i]) {
					fail <- "valid signature rejected under concurrency"
					return
				}
				// Wrong pairing must fail no matter which goroutine
				// populated the memo first.
				if VerifyCached(pub, msgs[i], sigs[(i+1)%shared]) {
					fail <- "mismatched signature accepted under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestVerifyCachedSingleFlight releases 16 goroutines at once onto one
// fresh valid signature and one fresh tampered one: each verdict must
// cost exactly one Ed25519 call, every other caller waiting for it, and
// every caller must get the right answer.
func TestVerifyCachedSingleFlight(t *testing.T) {
	pub, priv := testKeyPair(t)
	msg := []byte("single flight")
	sig := ed25519.Sign(priv, msg)
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0x01

	const callers = 16
	h0, m0 := VerifyCacheStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 2*callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if !VerifyCached(pub, msg, sig) {
				fail <- "valid signature rejected"
			}
			if VerifyCached(pub, msg, bad) {
				fail <- "tampered signature accepted"
			}
		}()
	}
	close(start)
	wg.Wait()
	close(fail)
	for f := range fail {
		t.Fatal(f)
	}
	h1, m1 := VerifyCacheStats()
	if m1-m0 != 2 || h1-h0 != 2*callers-2 {
		t.Fatalf("misses +%d, hits +%d; want +2 and +%d", m1-m0, h1-h0, 2*callers-2)
	}
}

// TestVerifyShardRotationKeepsCorrectness overflows a single shard so
// the young generation rotates; verdicts must stay correct for entries
// that fell out of the memo (they are simply recomputed).
func TestVerifyShardRotationKeepsCorrectness(t *testing.T) {
	pub, priv := testKeyPair(t)
	msg := []byte("survivor")
	sig := ed25519.Sign(priv, msg)
	if !VerifyCached(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	// Blow well past the whole memo's capacity with distinct signatures.
	for i := 0; i < verifyMemoSize+2*verifyShardCap; i++ {
		m := []byte{byte(i), byte(i >> 8), byte(i >> 16), 'f'}
		if !VerifyCached(pub, m, ed25519.Sign(priv, m)) {
			t.Fatalf("valid signature %d rejected", i)
		}
	}
	if !VerifyCached(pub, msg, sig) {
		t.Fatal("valid signature rejected after rotation")
	}
	if VerifyCached(pub, append([]byte(nil), msg[:len(msg)-1]...), sig) {
		t.Fatal("tampered message accepted after rotation")
	}
}

// TestVerifyBatchCachedFillsMemo: a batch puts each member's own verdict
// into the memo — the forged member's false among honest trues — counts
// one miss per member it checked, and skips, as a hit, a member already
// present. Callers of VerifyCached racing the batch wait for its entries.
func TestVerifyBatchCachedFillsMemo(t *testing.T) {
	pub, priv := testKeyPair(t)
	batch := make([]Signed, 40)
	for i := range batch {
		msg := []byte{byte(i), 'b'}
		batch[i] = Signed{pub, msg, ed25519.Sign(priv, msg)}
	}
	batch[9].Sig = append([]byte(nil), batch[9].Sig...)
	batch[9].Sig[40] ^= 0x10
	if !VerifyCached(batch[0].Pub, batch[0].Msg, batch[0].Sig) {
		t.Fatal("valid signature rejected")
	}

	h0, m0 := VerifyCacheStats()
	var wg sync.WaitGroup
	racers := make([]bool, len(batch))
	for i := range batch {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			racers[i] = VerifyCached(batch[i].Pub, batch[i].Msg, batch[i].Sig)
		}(i)
	}
	VerifyBatchCached(batch)
	wg.Wait()
	h1, m1 := VerifyCacheStats()
	// Every new signature is checked once, by the batch or by a racer;
	// every other lookup of the batch's and the racers' is a hit.
	if m1-m0 != uint64(len(batch))-1 || (m1-m0)+(h1-h0) != 2*uint64(len(batch)) {
		t.Fatalf("misses +%d, hits +%d; want +%d misses of %d lookups", m1-m0, h1-h0, len(batch)-1, 2*len(batch))
	}
	for i, m := range batch {
		if want := i != 9; racers[i] != want || VerifyCached(m.Pub, m.Msg, m.Sig) != want {
			t.Fatalf("member %d: verdict %v, want %v", i, racers[i], want)
		}
	}
}
