// Block-intake parallel verification front-end. Ed25519 verification is
// the single most expensive per-transaction computation on the block hot
// path; executed serially inside the execute stage it gates block
// latency. On block arrival the node therefore hands the block to a pool
// of GOMAXPROCS workers that claim its transactions one index at a time,
// warming the process-wide verification memo (internal/identity) and the
// node's decoded-key cache. The execute stage still performs the
// authoritative authenticate call — prewarming only changes where the
// cycles are spent, never the outcome, because the memo is keyed by the
// exact (key, message, signature) bytes and the decoded-key cache is
// epoch- and height-guarded. A signature still being verified is an
// in-flight memo entry, which the execute stage waits for, not repeats.

package core

import (
	"runtime"
	"sync/atomic"

	"bcrdb/internal/ledger"
)

// prewarmJob is a block on offer to the verify pool; next is the index
// of the next transaction to claim.
type prewarmJob struct {
	b    *ledger.Block
	next atomic.Int32
}

// prewarmBlock offers the block once per worker, never blocking (the
// caller is the delivery handler); if the channel is full, the execute
// stage verifies inline what no worker claims.
func (n *Node) prewarmBlock(b *ledger.Block) {
	j := &prewarmJob{b: b}
	for i := min(runtime.GOMAXPROCS(0), len(b.Txs)); i > 0; i-- {
		select {
		case n.verifyCh <- j:
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
		case j := <-n.verifyCh:
			n.prewarm(j)
		}
	}
}

// prewarm verifies the job's transactions until none is left to claim.
func (n *Node) prewarm(j *prewarmJob) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= len(j.b.Txs) {
			return
		}
		select {
		case <-n.stopped:
			return
		default:
		}
		_ = n.authenticate(j.b.Txs[i], n.store.Height())
		n.metrics.SigPrewarms.Add(1)
	}
}
