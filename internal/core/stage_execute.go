// Stage 1 — Execute: concurrent transaction execution against the
// block's snapshot (§3.3.2 / §3.4.1). See pipeline.go for the stage
// overview; execqueue.go holds the stage's one snapshot-height wait.

package core

import (
	"fmt"
	"time"

	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/storage"
)

// ensureExecution starts (or joins) the execution of a transaction at
// the given snapshot height. It returns the execution and whether it was
// freshly started by this call.
func (n *Node) ensureExecution(tx *ledger.Transaction, snapshot int64) (*execution, bool) {
	n.execMu.Lock()
	if e, ok := n.executing[tx.ID]; ok {
		n.execMu.Unlock()
		return e, false
	}
	e := &execution{tx: tx, done: make(chan struct{})}
	n.executing[tx.ID] = e
	n.execMu.Unlock()
	n.execQ.put(e, snapshot)
	return e, true
}

// execWorker drains the execute-stage scheduler (execqueue.go) until the
// queue closes at shutdown.
func (n *Node) execWorker() {
	defer n.execWG.Done()
	for {
		job, ok := n.execQ.take()
		if !ok {
			return
		}
		n.runExecution(job.e, job.snapshot)
	}
}

// runExecution performs the execution phase of §3.3.2 / §3.4.1 on a job
// whose snapshot height is committed (the queue hands a worker no other):
// authenticate, run the contract with full read/write tracking, then
// leave the record for the block processor's commit turn (it reads e.rec
// after e.done).
func (n *Node) runExecution(e *execution, snapshot int64) {
	defer close(e.done)
	start := time.Now()
	defer func() {
		e.ran = time.Since(start)
		n.metrics.TxExecNanos.Add(int64(e.ran))
		n.metrics.TxExecCount.Add(1)
	}()

	// Authenticate against certificates visible at the snapshot height —
	// identical on every node (§3.3.2 step 2).
	if err := n.authenticate(e.tx, snapshot); err != nil {
		e.err = err
		return
	}
	rec := storage.AcquireTxRecord(n.store.BeginTx(), snapshot)
	e.rec = rec
	ctx := &engine.ExecCtx{
		Mode:         engine.ModeContract,
		Rec:          rec,
		Height:       snapshot,
		RequireIndex: n.cfg.Flow == ExecuteOrder,
		User:         e.tx.Username,
	}
	res, err := n.interp.Call(ctx, e.tx.Contract, e.tx.Args)
	if err != nil {
		e.err = err
		return
	}
	e.result = res
}

// cancelExecution abandons an execution whose snapshot height the block
// carrying it has made impossible. If the execution is still queued
// (parked on that height, or behind other work), it is withdrawn before
// ever running; a job a worker already took has a committed snapshot and
// runs to completion.
func (n *Node) cancelExecution(e *execution) {
	if n.execQ.remove(e) {
		e.err = errCancelled
		close(e.done)
		return
	}
	<-e.done
}

// executeStage runs (or joins) every transaction of the block and waits
// for all of them to finish. With the pipeline enabled, the previous
// block's bumpHeight has already released this block's snapshot waits,
// so execution here overlaps the previous block's seal.
func (n *Node) executeStage(b *ledger.Block, replay bool) []*execution {
	execs := make([]*execution, len(b.Txs))
	blockSnapshot := int64(b.Number) - 1
	for i, tx := range b.Txs {
		snapshot := blockSnapshot
		if n.cfg.Flow == ExecuteOrder {
			snapshot = tx.Snapshot
		}
		if snapshot >= int64(b.Number) {
			// Snapshot at or above this block can never be satisfied:
			// fail deterministically without waiting.
			e := &execution{tx: tx, err: fmt.Errorf("invalid snapshot %d for block %d", snapshot, b.Number),
				done: make(chan struct{})}
			close(e.done)
			// If a forwarded copy is already waiting on that height,
			// abandon it.
			n.execMu.Lock()
			if running, ok := n.executing[tx.ID]; ok {
				n.execMu.Unlock()
				n.cancelExecution(running)
				n.execMu.Lock()
			}
			n.executing[tx.ID] = e
			n.execMu.Unlock()
			execs[i] = e
			continue
		}
		e, started := n.ensureExecution(tx, snapshot)
		if started {
			if n.cfg.Flow == ExecuteOrder && !replay {
				// The committer had to start a missing transaction
				// itself (§3.4.3, the mt metric).
				n.metrics.MissingTxs.Add(1)
			}
		}
		execs[i] = e
		if n.cfg.SerialExecution {
			<-e.done // Ethereum-style: one at a time (§5.1)
		}
	}
	for _, e := range execs {
		<-e.done
	}
	return execs
}
