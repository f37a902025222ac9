// Block-intake parallel verification front-end. Signature verification
// is the single most expensive per-transaction computation on the block
// hot path; executed serially inside the execute stage it gates block
// latency. On block arrival the node therefore hands the block to a pool
// of GOMAXPROCS workers that claim its transactions a chunk at a time
// and check each chunk's client signatures with one batch equation
// (identity.VerifyBatchCached), warming the process-wide verification
// memo and the node's decoded-key cache. A batch of n signatures by one
// key costs about a third of n single checks; one forged signature costs
// its chunk the batch plus a single check of each member. The execute
// stage still performs the authoritative authenticate call — prewarming
// only changes where the cycles are spent, never the outcome, because the
// memo is keyed by the exact (key, message, signature) bytes, a batch and
// a single check decide by the same rule, and the decoded-key cache is
// epoch- and height-guarded. A chunk still being verified is a set of
// in-flight memo entries, which the execute stage waits for, not repeats.

package core

import (
	"runtime"
	"sync/atomic"

	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
)

// prewarmChunkFloor is the smallest chunk a block is cut into while it
// has more transactions than that: a one-key batch of 32 checks a
// signature in 15–20 µs, of 8 in 21–26 µs, and of 64 in hardly less than
// of 32, against 55–60 µs for a single check (2 vCPU, go1.24.0; ADR-0011).
const prewarmChunkFloor = 32

// prewarmJob is a block on offer to the verify pool; next is the index
// of the next chunk's first transaction.
type prewarmJob struct {
	b     *ledger.Block
	chunk int32
	next  atomic.Int32
}

// prewarmChunk is the chunk size for a block of n transactions offered to
// workers: as many even chunks as there are workers, but none below the
// floor.
func prewarmChunk(n, workers int) int {
	k := max(1, min(workers, n/prewarmChunkFloor))
	return (n + k - 1) / k
}

// prewarmBlock offers the block once per chunk, up to one offer per
// worker, never blocking (the caller is the delivery handler); if the
// channel is full, the execute stage verifies inline what no worker
// claims.
func (n *Node) prewarmBlock(b *ledger.Block) {
	workers := runtime.GOMAXPROCS(0)
	chunk := prewarmChunk(len(b.Txs), workers)
	j := &prewarmJob{b: b, chunk: int32(chunk)}
	for i := min(workers, (len(b.Txs)+chunk-1)/chunk); i > 0; i-- {
		select {
		case n.verifyCh <- j:
		default:
			return
		}
	}
}

// verifyLoop is one prewarm worker.
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

// prewarm verifies the job's chunks until none is left to claim.
func (n *Node) prewarm(j *prewarmJob) {
	for {
		hi := int(j.next.Add(j.chunk))
		lo := hi - int(j.chunk)
		if lo >= len(j.b.Txs) {
			return
		}
		select {
		case <-n.stopped:
			return
		default:
		}
		txs := j.b.Txs[lo:min(hi, len(j.b.Txs))]
		n.verifySignatures(txs, n.store.Height())
		n.metrics.SigPrewarms.Add(int64(len(txs)))
	}
}

// verifySignatures checks the client signatures of txs as one batch into
// the verification memo, with keys read at height. The verdicts are not
// returned: authenticate reads them back from the memo. A transaction
// whose user has no key is left to authenticate, which reports it.
func (n *Node) verifySignatures(txs []*ledger.Transaction, height int64) {
	batch := make([]identity.Signed, 0, len(txs))
	for _, tx := range txs {
		if key, err := n.certKeyAt(tx.Username, height); err == nil {
			batch = append(batch, identity.Signed{Pub: key, Msg: tx.SignBytes(), Sig: tx.Signature})
		}
	}
	identity.VerifyBatchCached(batch)
}
