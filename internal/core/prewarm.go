// Block-intake parallel verification front-end. Ed25519 verification is
// the single most expensive per-transaction computation on the block hot
// path; executed serially inside the execute stage it gates block
// latency. On block arrival the node therefore fans the block's client
// signatures across a pool of GOMAXPROCS workers that warms the
// process-wide verification memo (internal/identity) and the node's
// decoded-key cache. The execute stage still performs the
// authoritative authenticate call — prewarming only changes where the
// cycles are spent, never the outcome, because the memo is keyed by the
// exact (key, message, signature) bytes and the decoded-key cache is
// epoch- and height-guarded.

package core

import "bcrdb/internal/ledger"

// prewarmBlock feeds a block's transactions to the verify pool. Sends
// never block: if the pool is saturated the remaining signatures are
// simply verified inline by the execute stage, exactly as without the
// pool.
func (n *Node) prewarmBlock(b *ledger.Block) {
	for _, tx := range b.Txs {
		select {
		case n.verifyCh <- tx:
		case <-n.stopped:
			return
		default:
			return
		}
	}
}

// verifyLoop is one prewarm worker. The verification verdict is
// discarded: the call's only job is to populate the caches the execute
// stage's authenticate consults.
func (n *Node) verifyLoop() {
	defer n.verifyWG.Done()
	for {
		select {
		case <-n.stopped:
			return
		case tx := <-n.verifyCh:
			_ = n.authenticate(tx, n.store.Height())
			n.metrics.SigPrewarms.Add(1)
		}
	}
}
