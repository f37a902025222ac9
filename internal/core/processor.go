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

// collectCheckpoints verifies and stores the peer checkpoints riding in a
// block (§3.3.4), comparing them with our own hashes.
func (n *Node) collectCheckpoints(b *ledger.Block, replay bool) {
	for _, cp := range b.Checkpoints {
		if err := n.netReg.VerifyBy(cp.Peer, cp.SignBytes(), cp.Signature); err != nil {
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
		n.cpMu.Unlock()
		n.evaluateCheckpoint(cp.Block)
	}
}

// checkpointRetention is how many blocks behind the quorum point a
// not-yet-fully-compared checkpoint entry is retained, so a lagging
// peer's (possibly divergent) checkpoint can still be compared and
// alerted on. Entries older than this are evicted unconditionally,
// which bounds the bookkeeping even when a peer is permanently down.
const checkpointRetention = 128

// checkpointLagCap is the absolute bound: entries further than this
// behind the node's own sealed tip are evicted even when no quorum ever
// forms (e.g. a majority of peers down, so lastCP cannot advance and the
// retention rule above never fires). Divergence from a peer lagging more
// than this goes undetected — the memory bound wins.
const checkpointLagCap = 4096

// evaluateCheckpoint records a checkpoint when a majority of peers agree
// with our hash, and raises alerts for divergent peers (§3.5 properties
// 3 and 5). Quorum-passed bookkeeping is pruned once every peer's hash
// has been compared (or the retention window is exceeded) — without
// pruning, every block would leak one map entry per peer forever.
func (n *Node) evaluateCheckpoint(block uint64) {
	n.cpMu.Lock()
	defer n.cpMu.Unlock()
	own, ok := n.ownHashes[block]
	if !ok {
		return
	}
	agree := 1 // ourselves
	for peer, h := range n.peerHashes[block] {
		if peer == n.cfg.Name {
			continue
		}
		if h == own {
			agree++
		} else {
			n.raiseAlertLocked(fmt.Sprintf("checkpoint divergence at block %d: peer %s", block, peer))
		}
	}
	if agree > len(n.cfg.Peers)/2 && block > n.lastCP {
		n.lastCP = block
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

// pruneCheckpoints drops finished checkpoint bookkeeping. The seal stage
// calls it once per block — off the commit-critical path — rather than
// on every evaluateCheckpoint, which runs per peer checkpoint inside
// block intake.
func (n *Node) pruneCheckpoints() {
	n.cpMu.Lock()
	n.pruneCheckpointsLocked()
	n.cpMu.Unlock()
}

// pruneCheckpointsLocked drops checkpoint bookkeeping that can no longer
// change anything. Caller holds cpMu.
func (n *Node) pruneCheckpointsLocked() {
	for blk := range n.peerHashes {
		if n.checkpointPruneableLocked(blk) {
			delete(n.ownHashes, blk)
			delete(n.peerHashes, blk)
		}
	}
	for blk := range n.ownHashes {
		if n.checkpointPruneableLocked(blk) {
			delete(n.ownHashes, blk)
			delete(n.peerHashes, blk)
		}
	}
}

// checkpointPruneableLocked reports whether block blk's checkpoint entry
// is finished: far enough behind our own sealed tip that no comparison
// is worth waiting for, or at/below the quorum point and either compared
// against every peer already or older than the laggard retention window.
func (n *Node) checkpointPruneableLocked(blk uint64) bool {
	if sealed := n.sealedHeight.Load(); sealed > checkpointLagCap && blk <= uint64(sealed)-checkpointLagCap {
		return true
	}
	if blk > n.lastCP {
		return false
	}
	if blk+checkpointRetention <= n.lastCP {
		return true
	}
	others := 0
	for peer := range n.peerHashes[blk] {
		if peer != n.cfg.Name {
			others++
		}
	}
	return others >= len(n.cfg.Peers)-1
}

// --- recovery (§3.6) ----------------------------------------------------------

// recoverLocal rebuilds state after a restart from the block log, the
// node's one durable log. With the memory backend every block is
// re-executed from block 1: execution and commit decisions are
// deterministic, so replay reproduces the pre-crash state. With the disk
// backend the store came back from its own log up to its durable height
// R, and blocks 1..R are not re-executed: their ledger rows and
// checkpoint hashes come from their outcome frames. The seal syncs the
// block log before the storage horizon passes a block, so every block at
// or below R has its block and outcome frames; one without them means the
// block log was damaged or lost, and the node refuses to start, naming the
// log and the block. Blocks above R are the crash window (§3.6 case b):
// re-executed, checked against their outcome frame where the log has one
// (a mismatch means the chain or the log was tampered with), and given one
// by the replayed seal where it has none.
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
		out, ok := n.blocks.Outcome(i)
		if err != nil || !ok {
			return fmt.Errorf("core: %s holds no outcome of block %d, yet %s is durable to block %d: the block log is damaged or was lost",
				dataFile(n.cfg, ".blocks"), i, dataFile(n.cfg, ".store.wal"), restored)
		}
		n.cpMu.Lock()
		n.ownHashes[i] = out.WriteHash
		n.cpMu.Unlock()
		n.evaluateCheckpoint(i)
		if err := n.ledger.restore(b, out.Committed); err != nil {
			return err
		}
	}
	for i := restored + 1; i <= height; i++ {
		b, err := n.blocks.Get(i)
		if err != nil {
			return err
		}
		logged, ok := n.blocks.Outcome(i)
		n.processBlock(b, true)
		n.cpMu.Lock()
		own := n.lastSealedHash
		n.cpMu.Unlock()
		if ok && own != logged.WriteHash {
			return fmt.Errorf("core: recovery mismatch at block %d: replay disagrees with %s", i, dataFile(n.cfg, ".blocks"))
		}
	}
	// The restored-prefix loop above adopts one hash per block without
	// sealing (which is where pruning normally runs); drop what is
	// already finished so a long restored chain does not linger in memory.
	n.pruneCheckpoints()
	return nil
}
