// Stage 2 — Commit: SSI analysis and commit-turn validation strictly in
// block order (§3.3.3 / §3.4.1, Table 2), ending at bumpHeight. This is
// the serialization point of the pipeline: once the height is bumped,
// the next block's executions proceed while this block's seal runs in
// the background. See pipeline.go for the stage overview.

package core

import (
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ssi"
	"bcrdb/internal/storage"
)

// commitStage validates and commits the executed transactions in block
// order and advances the committed height. It returns the seal task
// carrying everything stage 3 needs, so the bookkeeping can leave the
// critical path.
func (n *Node) commitStage(b *ledger.Block, execs []*execution, replay bool, t0 time.Time) *sealTask {
	bet := time.Since(t0)
	tCommit := time.Now()
	infos := make([]*ssi.TxInfo, len(execs))
	for i, e := range execs {
		infos[i] = n.txInfo(i, e)
	}
	mode := ssi.OrderThenExecute
	if n.cfg.Flow == ExecuteOrder {
		mode = ssi.ExecuteOrderParallel
	}
	analysis := ssi.NewAnalysis(mode, infos)

	// The commit turn is serial in block order (§3.3.3, §4.2). It cannot
	// be partitioned by table: every contract call reads sys_contracts
	// inside its own transaction (§3.7: an upgrade aborts stale
	// invocations), so all footprints of a block overlap.
	results := make([]TxResult, len(execs))
	// committedRecs/committedTxs keep block order: the seal stage's digest
	// depends on it.
	var committedRecs []*storage.TxRecord
	var committedTxs []*ledger.Transaction
	for i, e := range execs {
		// Duplicate-id detection (§3.4.3, the unique-identifier rule). The
		// id is consumed whether the transaction commits or aborts;
		// sys_ledger shows both, at the id's first position.
		dup := n.ledger.consume(e.tx.ID, txPos{b.Number, uint32(i)})
		n.commitOne(b, i, e, dup, analysis, results)
		if results[i].Committed {
			committedRecs = append(committedRecs, e.rec)
			committedTxs = append(committedTxs, e.tx)
		}
	}
	if len(execs) > 0 {
		n.metrics.CommitGroups.Add(1) // see Metrics.CommitGroups
	}

	// Release execution slots.
	n.execMu.Lock()
	for _, e := range execs {
		if cur, ok := n.executing[e.tx.ID]; ok && cur == e {
			delete(n.executing, e.tx.ID)
		}
	}
	n.execMu.Unlock()

	// The block is now fully committed: block N+1 may execute.
	n.bumpHeight(int64(b.Number))
	bpt := time.Since(t0)
	n.metrics.BlocksProcessed.Add(1)
	n.metrics.BlockProcessNanos.Add(int64(bpt))
	n.metrics.BlockExecNanos.Add(int64(bet))
	n.metrics.BlockCommitNanos.Add(int64(time.Since(tCommit)))

	return &sealTask{
		block:         b,
		execs:         execs,
		results:       results,
		committedTxs:  committedTxs,
		committedRecs: committedRecs,
		replay:        replay,
	}
}

// commitOne validates and commits (or aborts) the block's i-th
// transaction.
func (n *Node) commitOne(b *ledger.Block, i int, e *execution, dup bool,
	analysis *ssi.Analysis, results []TxResult) {
	reason := ""
	switch {
	case e.err != nil:
		reason = "execution: " + e.err.Error()
	case dup:
		reason = "duplicate transaction id"
	default:
		if r := analysis.ShouldAbort(i); r != ssi.ReasonNone {
			reason = string(r)
		} else if err := n.store.Validate(e.rec, int64(b.Number)); err != nil {
			reason = err.Error()
		}
	}
	if reason == "" {
		n.store.CommitTx(e.rec, int64(b.Number))
		n.noteCertWrites(e.rec)
		analysis.MarkCommitted(i)
		n.metrics.TxCommitted.Add(1)
	} else {
		if e.rec != nil {
			// A duplicate entry shares its first entry's record; AbortTx
			// keeps the versions that entry committed.
			n.store.AbortTx(e.rec)
		}
		analysis.MarkAborted(i)
		n.metrics.TxAborted.Add(1)
	}
	results[i] = TxResult{ID: e.tx.ID, Block: b.Number, Committed: reason == "", Reason: reason}
}

// noteCertWrites bumps the cert-cache epoch when a committed
// transaction touched sys_certs, invalidating every cached key.
func (n *Node) noteCertWrites(rec *storage.TxRecord) {
	for _, ir := range rec.Inserted {
		if ir.Table == "sys_certs" {
			n.certsEpoch.Add(1)
			return
		}
	}
	for _, ir := range rec.DeletedOld {
		if ir.Table == "sys_certs" {
			n.certsEpoch.Add(1)
			return
		}
	}
}

// txInfo converts an execution into the SSI analysis input.
func (n *Node) txInfo(seq int, e *execution) *ssi.TxInfo {
	info := &ssi.TxInfo{
		Seq:        seq,
		ReadRows:   map[storage.ItemRef]struct{}{},
		WrittenOld: map[storage.ItemRef]struct{}{},
	}
	if e.rec == nil || e.err != nil {
		return info
	}
	info.SnapshotHeight = e.rec.SnapshotHeight
	info.ReadRows = e.rec.ReadRows
	info.ReadRanges = e.rec.ReadRanges
	for _, ir := range e.rec.DeletedOld {
		info.WrittenOld[ir] = struct{}{}
	}
	for _, ir := range e.rec.Inserted {
		for ixName, key := range n.store.IndexKeys(ir.Table, ir.Ref) {
			info.InsertedKeys = append(info.InsertedKeys, ssi.KeyAt{
				Table: ir.Table, Index: ixName, Key: key,
			})
		}
	}
	return info
}

// bumpHeight publishes block h as committed and releases the executions
// parked on this (or a lower) snapshot height — the one place a
// transaction's wait for its snapshot ends (execqueue.go).
func (n *Node) bumpHeight(h int64) {
	n.store.SetHeight(h)
	n.execQ.release(h)
}
