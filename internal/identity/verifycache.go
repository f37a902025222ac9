package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Signature-verification memo. Verification is a pure function of
// (public key, message, signature), yet the simulated network pays
// for it repeatedly: every database node verifies every transaction's
// client signature during block execution, and in the
// execute-order-in-parallel flow the receiving node's door checks it
// first, a batch of submissions at a time, and every peer it forwards
// the submission to checks it again. On real deployments those
// verifications run on separate machines; in this single-process
// simulation they all compete for the same cores, so memoizing the pure
// computation removes the duplicate work without changing any node's
// observable behavior — every node still "performs" authentication and
// sees the identical boolean.
//
// The memo is keyed by a digest of (key, message, signature), so a
// different signature, message or key can never alias a cached verdict.
// Failed verifications are cached too (re-verifying a bad signature is
// as expensive as a good one).
//
// An entry goes in before its verification runs, so concurrent callers
// (the block-intake prewarm, every replica's execute stage) wait for the
// one check instead of repeating it; only that check is a miss. The
// block-intake prewarm and the execute-order door fill entries a batch
// at a time (VerifyBatchCached): one batch equation decides all of a
// batch's misses, and a member whose entry is already present or in
// flight is left to whoever holds it.
//
// The memo is sharded: with the block-intake prewarm pool and every
// node's execute stage verifying concurrently, a single mutex would just
// move the serialization from the verification to the cache. The digest
// key is uniformly distributed, so its first byte picks the shard.

const (
	verifyMemoSize   = 8192
	verifyMemoShards = 16
	verifyShardCap   = verifyMemoSize / verifyMemoShards
)

// verifyShard is one stripe of the two-generation bounded cache: inserts
// go to the young map; when it fills, it becomes the old generation and
// a fresh young map starts. Lookups consult both, so hot entries survive
// at least one rotation. Padded so adjacent shard locks don't share a
// cache line.
type verifyShard struct {
	mu    sync.Mutex
	young map[[32]byte]*verifyEntry
	old   map[[32]byte]*verifyEntry
	_     [40]byte
}

// verifyEntry is one memoized verdict, valid once done is closed. Waiters
// hold the entry itself, so a rotation that drops it strands none.
type verifyEntry struct {
	done chan struct{}
	ok   bool
}

var (
	verifyMemo [verifyMemoShards]verifyShard

	// Contention-visible counters: a miss rate that stays high for a
	// workload of repeated signatures means entries are being rotated out
	// (memo too small), not that the memo is broken.
	verifyHits   atomic.Uint64
	verifyMisses atomic.Uint64
)

func verifyKey(pub ed25519.PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	h.Write(pub)
	h.Write(sig)
	h.Write(msg)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// claim finds the memo entry for k, or inserts an in-flight one; fresh
// reports an insert, which the caller must finish by setting ok and
// closing done.
func claim(k [32]byte) (e *verifyEntry, fresh bool) {
	s := &verifyMemo[k[0]%verifyMemoShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e = s.young[k]; e == nil {
		e = s.old[k]
	}
	if e != nil {
		return e, false
	}
	e = &verifyEntry{done: make(chan struct{})}
	if s.young == nil {
		s.young = make(map[[32]byte]*verifyEntry, verifyShardCap)
	} else if len(s.young) >= verifyShardCap {
		s.old = s.young
		s.young = make(map[[32]byte]*verifyEntry, verifyShardCap)
	}
	s.young[k] = e
	return e, true
}

// VerifyCached is the signature predicate (verify.go) behind the
// process-wide sharded memo. A caller that finds an entry, even one in
// flight, is a hit and waits.
func VerifyCached(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	e, fresh := claim(verifyKey(pub, msg, sig))
	if !fresh {
		verifyHits.Add(1)
		<-e.done
		return e.ok
	}
	verifyMisses.Add(1)
	defer close(e.done) // even on a panic, so no waiter is stranded
	e.ok = verify(pub, msg, sig)
	return e.ok
}

// VerifyBatchCached puts the verdict of every member of batch into the
// memo. A member already present or in flight is a hit and is skipped,
// not waited for; every other one gets an
// in-flight entry first, so concurrent VerifyCached callers wait for the
// batch instead of repeating it. The misses are then checked together
// (verifyBatch), each keeping its own verdict.
func VerifyBatchCached(batch []Signed) {
	misses := make([]Signed, 0, len(batch))
	entries := make([]*verifyEntry, 0, len(batch))
	for _, m := range batch {
		if len(m.Pub) != ed25519.PublicKeySize {
			continue
		}
		e, fresh := claim(verifyKey(m.Pub, m.Msg, m.Sig))
		if !fresh {
			verifyHits.Add(1)
			continue
		}
		misses = append(misses, m)
		entries = append(entries, e)
	}
	verifyMisses.Add(uint64(len(entries)))
	defer func() { // even on a panic, so no waiter is stranded
		for _, e := range entries {
			close(e.done)
		}
	}()
	for i, ok := range verifyBatch(misses) {
		entries[i].ok = ok
	}
}

// VerifyCacheStats returns the process-wide memo hit/miss counters.
func VerifyCacheStats() (hits, misses uint64) {
	return verifyHits.Load(), verifyMisses.Load()
}
