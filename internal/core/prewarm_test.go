package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/types"
)

// TestForgedSignatureInBlockRejected hides one transaction whose
// signature has a flipped byte in a block of valid ones, more than five
// per prewarm worker (a pool fed one signature per channel slot would
// drop the rest), so the block-intake prewarm and the execute stage race
// over it. Order-then-execute has no check at the door; under
// execute-order the door rejects the forgery, so it reaches the block
// through the ordering service directly. Every node must abort it for its
// signature, commit its neighbours and reach the same state, and node 0's
// prewarm must have verified every transaction of the block.
func TestForgedSignatureInBlockRejected(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		flow := flow
		name := map[Flow]string{OrderThenExecute: "OE", ExecuteOrder: "EO"}[flow]
		t.Run(name, func(t *testing.T) {
			valid := 5*runtime.GOMAXPROCS(0) + 20
			size := valid + 1
			tn := newTestNet(t, netOpts{flow: flow,
				cfg: ordering.Config{BlockSize: size, BlockTimeout: 5 * time.Second}})
			var snapshot int64
			if flow == ExecuteOrder {
				snapshot = tn.nodes[0].Height()
			}
			acct := func(id int) []types.Value {
				return []types.Value{types.NewInt(int64(id)), types.NewString("forge"), types.NewFloat(1)}
			}
			forged := tn.buildTx("alice", "put_account", acct(3000), snapshot)
			forged.Signature[7] ^= 0x01

			if flow == ExecuteOrder {
				ch := tn.watch(forged.ID)
				tn.submitTo(0, forged)
				if r := tn.await(ch); r.Committed || !strings.Contains(r.Reason, "signature verification failed") {
					t.Fatalf("door answered the forgery with %+v", r)
				}
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
			txs = append(txs[:valid/2], append([]*ledger.Transaction{forged}, txs[valid/2:]...)...)
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
				block = got[forged.ID].Block
				for _, tx := range txs {
					r := got[tx.ID]
					if r.Block != block {
						t.Fatalf("node %d: transaction %s in block %d, want all in block %d", i, tx.ID, r.Block, block)
					}
					if tx == forged {
						if r.Committed || !strings.Contains(r.Reason, "signature verification failed") {
							t.Fatalf("node %d answered the forgery with %+v", i, r)
						}
					} else if !r.Committed {
						t.Fatalf("node %d aborted a valid neighbour: %s", i, r.Reason)
					}
				}
			}
			tn.waitHeights(int64(block))
			tn.assertConsistent(int64(block))
			for i, n := range tn.nodes {
				res, err := n.Query(`SELECT status FROM sys_ledger WHERE txid = $1`, types.NewString(forged.ID))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() == "committed" {
					t.Fatalf("node %d ledger row of the forgery = %v, %v", i, res, err)
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
		})
	}
}
