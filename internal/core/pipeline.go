// The block-processing pipeline (§3.3.2–§3.3.4 / §3.4, restructured for
// cross-block overlap):
//
//	Stage 1 — Execute (stage_execute.go): all transactions of the block
//	          run concurrently against the pre-block snapshot; one whose
//	          snapshot is not committed yet waits parked in execqueue.go.
//	Stage 2 — Commit (stage_commit.go): SSI analysis, commit-turn
//	          validation and CommitTx strictly in block order, ending at
//	          bumpHeight — the point at which block N+1's executions may
//	          proceed.
//	Stage 3 — Seal (stage_seal.go): the write-set digest, the block's
//	          outcome in the block store (its sys_ledger rows and its
//	          frame in the block log), the checkpoint comparison, the
//	          durability fsync, checkpoint signing/broadcast and client
//	          notifications.
//
// Execute and Commit form the commit-critical path and run on the block
// processor goroutine. Seal is bookkeeping whose outputs nothing on the
// critical path reads, so it is handed to a dedicated sealer goroutine
// through a bounded channel: block N's seal overlaps block N+1's
// execution. Only replay (§3.6 recovery) drives the stages synchronously,
// so recovery stays deterministic; a restart that re-executes the chain
// is therefore the inline reference the pipeline is tested against.

package core

import (
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/storage"
)

// sealTask carries one committed block from the commit stage to the
// sealer. Everything in it was fully written before the channel send, so
// the sealer reads it without further synchronization.
type sealTask struct {
	block   *ledger.Block
	execs   []*execution
	results []TxResult // one per position: the block's outcome
	// committedTxs/committedRecs list the transactions that committed, in
	// block order; recs carry the commit-time write captures the digest
	// is computed from.
	committedTxs  []*ledger.Transaction
	committedRecs []*storage.TxRecord
	replay        bool
}

// processLoop drains sequenced blocks.
func (n *Node) processLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopped:
			return
		case b := <-n.blockCh:
			if b == nil {
				return
			}
			start := time.Now()
			n.processBlock(b, false)
			n.metrics.BusyNanos.Add(int64(time.Since(start)))
		}
	}
}

// processBlock runs the pipeline stages for one block. replay suppresses
// externally visible effects (checkpoint submission, notifications)
// during §3.6 recovery and forces the seal inline so recovery is
// deterministic and complete when Start returns; the inline seal's error
// (a replay that disagrees with the logged outcome) is returned.
func (n *Node) processBlock(b *ledger.Block, replay bool) error {
	t0 := time.Now()
	n.collectCheckpoints(b)
	execs := n.executeStage(b, replay)
	task := n.commitStage(b, execs, replay, t0)
	if replay {
		return n.sealStage(task)
	}
	// Hand off to the sealer. The channel bound is the pipeline's
	// backpressure: if sealing falls more than sealQueueCap blocks behind,
	// the commit stage blocks here rather than letting unsealed work grow
	// without limit.
	n.sealCh <- task
	return nil
}

// sealLoop is the sealer goroutine: it consumes committed blocks in
// block order and runs the seal stage for each. It exits when the commit
// stage has stopped and the queue is drained (clean shutdown flushes all
// pending seals), or immediately when sealAbort is closed (simulated
// crash in tests).
func (n *Node) sealLoop() {
	defer n.sealWG.Done()
	for task := range n.sealCh {
		for n.sealPause.Load() {
			// Test hook: parked — a paused sealer cannot drain, so
			// shutdown must not wait for it.
			select {
			case <-n.sealAbort:
				return
			case <-n.stopped:
				return
			case <-time.After(time.Millisecond):
			}
		}
		select {
		case <-n.sealAbort:
			return
		default:
		}
		if err := n.sealStage(task); err != nil {
			n.raiseAlert(err.Error()) // live blocks have no logged outcome to disagree with
		}
	}
}
