package core

import (
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/types"
)

// TestForgedSignatureInBlockRejected hides one crafted signature in the
// first prewarm chunk of a block of valid transactions, among at least
// prewarmChunkFloor-1 honest ones, so the chunk's batch equation meets it
// while the execute stage races the prewarm over the same memo entries.
// Two cases: a forgery (one flipped bit), which fails the batch and every
// single check; and a mixed-order signature (R carries the point of order
// 2), which the cofactorless check rejects and the ZIP-215 rule — batch
// and single alike — accepts. Order-then-execute has no check at the
// door; under execute-order the crafted transaction reaches the block
// through the ordering service directly, and the door is asked after the
// block, so the block's batch meets the signature first; a client then
// submitting the forgery must hear the door refuse it. Every node must decide the crafted transaction alike (the
// forgery aborted for its signature, the mixed-order one committed),
// commit every honest neighbour and reach the same state, and node 0's
// prewarm must have claimed every transaction of the block.
func TestForgedSignatureInBlockRejected(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		flow := flow
		t.Run(map[Flow]string{OrderThenExecute: "OE", ExecuteOrder: "EO"}[flow], func(t *testing.T) {
			t.Run("forged", func(t *testing.T) { testCraftedSignatureInBlock(t, flow, false) })
			t.Run("mixed-order", func(t *testing.T) { testCraftedSignatureInBlock(t, flow, true) })
		})
	}
}

func testCraftedSignatureInBlock(t *testing.T, flow Flow, mixed bool) {
	valid := max(5*runtime.GOMAXPROCS(0)+20, 2*prewarmChunkFloor)
	size := valid + 1
	chunk := prewarmChunk(size, runtime.GOMAXPROCS(0))
	if chunk < prewarmChunkFloor {
		t.Fatalf("a %d-transaction block is cut into chunks of %d, below the floor %d", size, chunk, prewarmChunkFloor)
	}
	tn := newTestNet(t, netOpts{flow: flow,
		cfg: ordering.Config{BlockSize: size, BlockTimeout: 5 * time.Second}})
	var snapshot int64
	if flow == ExecuteOrder {
		snapshot = tn.nodes[0].Height()
	}
	acct := func(id int) []types.Value {
		return []types.Value{types.NewInt(int64(id)), types.NewString("forge"), types.NewFloat(1)}
	}
	crafted := tn.buildTx("alice", "put_account", acct(3000), snapshot)
	if mixed {
		crafted.Signature = mixedOrderSign(clientSeed("alice"), crafted.SignBytes())
		if ed25519.Verify(tn.clients["alice"].PubKey, crafted.SignBytes(), crafted.Signature) {
			t.Fatal("the cofactorless check accepts the mixed-order signature: it tests nothing")
		}
	} else {
		crafted.Signature[7] ^= 0x01
	}

	results := make([]<-chan TxResult, len(tn.nodes))
	for i, n := range tn.nodes {
		results[i] = n.SubscribeAll()
	}
	prewarmed := tn.nodes[0].Metrics().SigPrewarms.Load()
	txs := make([]*ledger.Transaction, 0, size)
	for i := 0; i < valid; i++ {
		txs = append(txs, tn.buildTx("alice", "put_account", acct(3001+i), snapshot))
	}
	at := chunk / 2 // inside the first chunk
	txs = append(txs[:at], append([]*ledger.Transaction{crafted}, txs[at:]...)...)
	for _, tx := range txs {
		tn.order(tx)
	}

	var block uint64
	for i, ch := range results {
		got := make(map[string]TxResult, size)
		deadline := time.After(15 * time.Second)
		for len(got) < size {
			select {
			case r := <-ch:
				got[r.ID] = r
			case <-deadline:
				t.Fatalf("node %d published %d of %d results", i, len(got), size)
			}
		}
		block = got[crafted.ID].Block
		for _, tx := range txs {
			r := got[tx.ID]
			if r.Block != block {
				t.Fatalf("node %d: transaction %s in block %d, want all in block %d", i, tx.ID, r.Block, block)
			}
			switch {
			case tx == crafted && !mixed:
				if r.Committed || !strings.Contains(r.Reason, "signature verification failed") {
					t.Fatalf("node %d answered the forgery with %+v", i, r)
				}
			case !r.Committed:
				t.Fatalf("node %d aborted %s (crafted: %v): %s", i, tx.ID, tx == crafted, r.Reason)
			}
		}
	}
	tn.waitHeights(int64(block))
	tn.assertConsistent(int64(block))
	for i, n := range tn.nodes {
		res, err := n.Query(`SELECT status FROM sys_ledger WHERE txid = $1`, types.NewString(crafted.ID))
		if err != nil || len(res.Rows) != 1 || (res.Rows[0][0].Str() == "committed") != mixed {
			t.Fatalf("node %d ledger row of the crafted transaction = %v, %v", i, res, err)
		}
	}
	if flow == ExecuteOrder {
		// The door decides by the same rule as the block.
		for i, n := range tn.nodes {
			if err := n.authenticate(crafted, n.Height()); (err == nil) != mixed {
				t.Fatalf("node %d's door answered the crafted signature with %v", i, err)
			}
		}
		if !mixed {
			// A client submitting the forgery hears the door's refusal.
			// Node 0's block results are all drained, so the next result
			// for the id on its subscription is the door's.
			tn.submitTo(0, crafted)
			deadline := time.After(5 * time.Second)
			for r := (TxResult{}); r.ID != crafted.ID; {
				select {
				case r = <-results[0]:
				case <-deadline:
					t.Fatal("the door published no result for the forgery")
				}
				if r.ID == crafted.ID && (r.Committed || !strings.HasPrefix(r.Reason, "authentication: ") ||
					!strings.Contains(r.Reason, "signature verification failed")) {
					t.Fatalf("door answered the forgery with %+v", r)
				}
			}
		}
	}

	// The prewarm covered the whole block on node 0: one claim per
	// transaction, however many workers the offers reached.
	deadline := time.Now().Add(5 * time.Second)
	for tn.nodes[0].Metrics().SigPrewarms.Load()-prewarmed < int64(size) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := tn.nodes[0].Metrics().SigPrewarms.Load() - prewarmed; got != int64(size) {
		t.Fatalf("node 0 prewarmed %d signatures of a %d-transaction block", got, size)
	}
}

// mixedOrderSign signs msg with the key of seed so that R carries the
// point of order 2, (0, −1): R' = rB + (0, −1), which is R = rB with both
// coordinates negated, and S' = r + SHA-512(R' ‖ A ‖ M)·a. The
// cofactorless equation is off by (0, −1); eight times it is not.
func mixedOrderSign(seed, msg []byte) []byte {
	order, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	priv := ed25519.NewKeyFromSeed(seed)
	h := sha512.Sum512(seed)
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	a := leInt(h[:32])
	nonce := sha512.Sum512(append(append([]byte(nil), h[32:]...), msg...))
	r := leInt(nonce[:])
	r.Mod(r, order)

	R := ed25519.Sign(priv, msg)[:32] // rB
	y := append([]byte(nil), R...)
	y[31] &= 127
	R2 := le32(new(big.Int).Sub(p, leInt(y))) // −y
	R2[31] |= (R[31]>>7 ^ 1) << 7             // −x has the other parity
	k := sha512.Sum512(append(append(append([]byte(nil), R2...), priv.Public().(ed25519.PublicKey)...), msg...))
	S := leInt(k[:])
	S.Mod(S, order).Mul(S, a).Add(S, r).Mod(S, order)
	return append(R2, le32(S)...)
}

func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i, c := range b {
		be[len(b)-1-i] = c
	}
	return new(big.Int).SetBytes(be)
}

func le32(x *big.Int) []byte {
	out := make([]byte, 32)
	for i, c := range x.FillBytes(make([]byte, 32)) {
		out[31-i] = c
	}
	return out
}
