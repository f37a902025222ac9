// Block processing is organized as a three-stage pipeline — see
// pipeline.go (orchestration and the sealer), stage_execute.go,
// stage_commit.go and stage_seal.go. This file keeps what sits outside
// the per-block stages: checkpoint collection and evaluation (§3.3.4)
// and crash recovery (§3.6).

package core

import (
	"fmt"
	"slices"

	"bcrdb/internal/ledger"
)

// collectCheckpoints verifies the peer checkpoints riding in a block
// (§3.3.4). One for a block this node has sealed is compared with the
// block's outcome at once; one for a later block waits in peerHashes
// until the seal of that block compares it.
func (n *Node) collectCheckpoints(b *ledger.Block) {
	for _, cp := range b.Checkpoints {
		if cp.Peer == n.cfg.Name || n.netReg.VerifyBy(cp.Peer, cp.SignBytes(), cp.Signature) != nil {
			continue
		}
		// Reject checkpoints absurdly ahead of our own chain: a Byzantine
		// peer signing arbitrary block numbers must not be able to grow
		// peerHashes without bound (entries above our tip are otherwise
		// retained until we seal that block).
		if cp.Block > n.blocks.Height()+checkpointLagCap {
			continue
		}
		n.cpMu.Lock()
		m := n.peerHashes[cp.Block]
		if m == nil {
			m = make(map[string]ledger.Hash)
			n.peerHashes[cp.Block] = m
		}
		m[cp.Peer] = cp.WriteHash
		n.evaluateCheckpointLocked(cp.Block)
		n.cpMu.Unlock()
	}
}

// checkpointLagCap bounds the checkpoint bookkeeping when no quorum forms
// (a majority of peers down, so lastCP never moves): a checkpoint more
// than this many blocks above the chain's tip is ignored, and an
// agreement set this many blocks behind the sealed tip is dropped. A
// divergent checkpoint is never among what is dropped: it is compared,
// and alerted on, as soon as both hashes are known.
const checkpointLagCap = 4096

// evaluateCheckpointLocked compares the peer hashes kept for block with
// this node's own, the write hash of the block's outcome in the block
// store; without an outcome yet it does nothing. A divergent peer raises
// an alert (§3.5 properties 3 and 5) and leaves the set; the agreeing ones
// stay, and a majority moves the checkpoint to block. An entry at or
// below the checkpoint can change nothing and is dropped. Caller holds
// cpMu.
func (n *Node) evaluateCheckpointLocked(block uint64) {
	own, sealed := n.blocks.Outcome(block)
	if !sealed {
		return
	}
	peers := n.peerHashes[block]
	for peer, h := range peers {
		if h != own.WriteHash {
			n.raiseAlertLocked(fmt.Sprintf("checkpoint divergence at block %d: peer %s", block, peer))
			delete(peers, peer)
		}
	}
	if 1+len(peers) > len(n.cfg.Peers)/2 && block > n.lastCP {
		n.lastCP = block
	}
	if block <= n.lastCP || len(peers) == 0 {
		delete(n.peerHashes, block)
	}
}

// raiseAlert records an alert once.
func (n *Node) raiseAlert(alert string) {
	n.cpMu.Lock()
	n.raiseAlertLocked(alert)
	n.cpMu.Unlock()
}

// raiseAlertLocked is raiseAlert for callers holding cpMu.
func (n *Node) raiseAlertLocked(alert string) {
	if !slices.Contains(n.alerts, alert) {
		n.alerts = append(n.alerts, alert)
	}
}

// pruneCheckpointsLocked drops the entries that can change nothing once
// block sealed is: those at or below the checkpoint, and those
// checkpointLagCap blocks behind it. Caller holds cpMu.
func (n *Node) pruneCheckpointsLocked(sealed uint64) {
	for blk := range n.peerHashes {
		if blk <= n.lastCP || blk+checkpointLagCap <= sealed {
			delete(n.peerHashes, blk)
		}
	}
}

// --- recovery (§3.6) ----------------------------------------------------------

// recoverLocal rebuilds state after a restart from the block log, the
// node's one durable log. With the memory backend every block is
// re-executed from block 1: execution and commit decisions are
// deterministic, so replay reproduces the pre-crash state. With the disk
// backend the store came back from its own log up to its durable height
// R, and blocks 1..R are not re-executed: their ledger rows and
// checkpoint hashes are their outcomes in the block store. The seal syncs
// the block log before the storage horizon passes a block, so every block
// at or below R has its block and outcome frames; one without them means
// the block log was damaged or lost, and the node refuses to start,
// naming the log and the block. Blocks above R are the crash window (§3.6
// case b): re-executed, and the replayed seal checks each against its
// outcome frame where the log has one (a mismatch means the chain or the
// log was tampered with) and appends one where it has none.
//
// Replay drives the same Execute → Commit → Seal stages as live
// processing, but synchronously (the sealer is not running yet).
func (n *Node) recoverLocal() error {
	height := n.blocks.Height()
	restored := uint64(n.store.Height()) // >0 only when the disk backend replayed state
	defer func() {
		n.sealedHeight.Store(n.store.Height())
	}()
	for i := uint64(1); i <= restored; i++ {
		// The prefix goes first: duplicate-id decisions during the tail
		// replay must see the ids consumed below the horizon.
		b, err := n.blocks.Get(i)
		if _, ok := n.blocks.Outcome(i); err != nil || !ok {
			return fmt.Errorf("core: %s holds no outcome of block %d, yet %s is durable to block %d: the block log is damaged or was lost",
				dataFile(n.cfg, ".blocks"), i, dataFile(n.cfg, ".store.wal"), restored)
		}
		if err := n.ledger.restore(b); err != nil {
			return err
		}
		// The peer checkpoints riding in the prefix are read again:
		// each is compared with the outcome in the block store.
		n.collectCheckpoints(b)
	}
	// The restored prefix passes no seal. collectCheckpoints compared
	// every peer checkpoint it carries; this covers a one-node network,
	// where the node alone is a majority for its last restored block.
	n.cpMu.Lock()
	n.evaluateCheckpointLocked(restored)
	n.cpMu.Unlock()
	for i := restored + 1; i <= height; i++ {
		b, err := n.blocks.Get(i)
		if err != nil {
			return err
		}
		// One batch equation per block, before the execute stage reads
		// the verdicts back one by one.
		n.verifySignatures(b.Txs, n.store.Height())
		if err := n.processBlock(b, true); err != nil {
			return err
		}
	}
	return nil
}
