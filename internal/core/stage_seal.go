// Stage 3 — Seal: per-block bookkeeping that nothing on the commit
// critical path reads — the write-set digest, the block's outcome in the
// block store (which makes the block's sys_ledger rows visible, §3.3.2
// step 1 / §3.3.3, and is its frame in the block log), checkpointing
// (§3.3.4), the storage durability point, and client notifications
// (§2(7)). It runs on the sealer goroutine and overlaps the next block's
// execution; only replay runs it inline. See pipeline.go for the stage
// overview and docs/adr/0002-block-pipeline.md for the recovery
// implications.

package core

import (
	"crypto/sha256"
	"fmt"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/storage"
)

// sealStage performs the seal for one committed block. Within the seal,
// ordering is chosen for crash consistency on the disk backend:
//
//  1. write-set digest from the commit-time captures (no store reads);
//  2. the block's local xids to the sys_ledger view, then the block's
//     outcome to the block store — the one record of it, which makes the
//     block's rows visible (ledgerview.go) and writes the outcome frame
//     after the block's own. On replay the store may hold the outcome
//     already, logged before a crash: the digest is compared with it
//     instead, and a mismatch ends the seal with an error;
//  3. the peer checkpoints for the block are compared with its outcome;
//  4. on the disk backend an fsync of the block log, the only durable
//     home of the outcome;
//  5. MarkDurable — the storage height frame + fsync. Everything before
//     it (state commits from stage 2, the block log) is durable once it
//     returns, so a restart that restores height N also finds blocks 1..N
//     and their outcomes, and can publish their ledger rows again;
//  6. checkpoint broadcast and client notifications, which must only
//     ever announce durable outcomes.
//
// A crash anywhere before step 5 leaves the block beyond the storage
// recovery horizon: recovery re-executes it from the block store and
// re-derives the seal (§3.6 case b).
func (n *Node) sealStage(task *sealTask) error {
	t0 := time.Now()
	b := task.block
	writeHash := writeSetHash(task.committedTxs, task.committedRecs)
	logged, replayed := n.blocks.Outcome(b.Number)
	if replayed && logged.WriteHash != writeHash {
		return fmt.Errorf("core: recovery mismatch at block %d: replay disagrees with %s", b.Number, dataFile(n.cfg, ".blocks"))
	}

	// Before the block's notifications fire: a client that looks its
	// transaction up in sys_ledger after being notified finds the row.
	xids := make([]storage.TxID, len(task.execs))
	for i, e := range task.execs {
		if e.rec != nil {
			xids[i] = e.rec.ID
		}
	}
	if err := n.ledger.publish(b.Number, xids); err != nil {
		n.raiseAlert(err.Error())
	}
	var err error
	if !replayed {
		committed := make([]byte, (len(task.results)+7)/8)
		for i, r := range task.results {
			if r.Committed {
				committed[i/8] |= 1 << (i % 8)
			}
		}
		err = n.blocks.AppendOutcome(b.Number, ledger.Outcome{Committed: committed, WriteHash: writeHash})
	}
	n.cpMu.Lock()
	n.evaluateCheckpointLocked(b.Number)
	n.pruneCheckpointsLocked(b.Number)
	n.cpMu.Unlock()

	if err == nil && n.diskBacked {
		// The block and its outcome are durable before the storage horizon
		// passes the block: a restored block then always has both, for its
		// ledger rows, the checkpoint comparison and the replay
		// cross-check. A replayed block syncs too: a process crash can
		// leave its frames in the page cache, not yet on disk.
		err = n.blocks.Sync()
	}
	n.noteLogFailure(b.Number, err)
	n.store.MarkDurable(int64(b.Number))

	if !task.replay && b.Number%n.cfg.CheckpointEvery == 0 {
		cp := &ledger.Checkpoint{Peer: n.cfg.Name, Block: b.Number, WriteHash: writeHash}
		cp.Signature = n.signer.Sign(cp.SignBytes())
		payload := ledger.MarshalCheckpoint(cp)
		for _, o := range n.cfg.Orderers {
			_ = n.ep.Send(o, ordering.KindCheckpoint, payload)
		}
	}
	for _, r := range task.results {
		n.notify(r, task.replay)
	}

	n.sealedHeight.Store(int64(b.Number))
	n.metrics.BlocksSealed.Add(1)
	n.metrics.BlockSealNanos.Add(int64(time.Since(t0)))

	// The seal was the last reader of the block's execution records (the
	// write-set digest above consumed their captures); recycle them.
	n.releaseBlockRecords(task.execs)
	return nil
}

// releaseBlockRecords returns a sealed block's transaction records to
// the storage arena (storage/arena.go), deduplicated by execution, since
// a malicious block repeating a transaction id yields several entries
// sharing one record.
func (n *Node) releaseBlockRecords(execs []*execution) {
	for _, e := range execs {
		// Duplicate block entries share one execution object, so nil-ing
		// e.rec on first release also deduplicates.
		if rec := e.rec; rec != nil {
			e.rec = nil
			storage.ReleaseTxRecord(rec)
		}
	}
}

// noteLogFailure reports the first failed write of an outcome frame in
// Alerts: the frame is the only durable home of the block's transaction
// statuses, so a restart could not serve the block's ledger rows and
// refuses to (recoverLocal). The block store keeps the outcome in memory,
// so this process goes on serving them.
func (n *Node) noteLogFailure(block uint64, err error) {
	if err == nil {
		return
	}
	n.cpMu.Lock()
	if !n.logFailed {
		n.logFailed = true
		n.alerts = append(n.alerts, fmt.Sprintf("block log: writing the outcome of block %d failed: %v", block, err))
	}
	n.cpMu.Unlock()
}

// writeSetHash digests the union of all changes a block committed
// (§3.3.4): per committed transaction in block order, every inserted row
// and every superseded row's primary key. It works entirely from the
// commit-time write captures, so the seal never re-reads the store — the
// encoding (and therefore the hash) is identical to the pre-pipeline
// digest that re-issued a store.Get per row.
func writeSetHash(txs []*ledger.Transaction, recs []*storage.TxRecord) ledger.Hash {
	h := sha256.New()
	for i, rec := range recs {
		e := codec.NewBuf(256)
		e.String(txs[i].ID)
		if wc := rec.Capture; wc != nil {
			for _, cr := range wc.Inserted {
				e.String(cr.Table)
				e.Row(cr.Row)
			}
			for _, cr := range wc.Deleted {
				e.String("-" + cr.Table)
				e.Row(cr.Row)
			}
		}
		h.Write(e.Bytes())
	}
	var out ledger.Hash
	copy(out[:], h.Sum(nil))
	return out
}
