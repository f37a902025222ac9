// Package ordering defines the pluggable ordering-service contract of
// §3.1: database peers submit transaction envelopes and checkpoint
// messages to orderer nodes, which agree on blocks of transactions and
// atomically broadcast them. Two implementations exist, matching §4.4:
//
//   - ordering/kafka — crash fault tolerant, built on a totally-ordered
//     topic (the Kafka+ZooKeeper substitution);
//   - ordering/bft   — byzantine fault tolerant, a from-scratch PBFT
//     (the BFT-SMaRt substitution).
//
// Both cut blocks by size and by timeout using the paper's time-to-cut
// scheme and deliver identical signed blocks to their connected peers
// over the simulated network.
package ordering

import (
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/ledger"
)

// EncodeHeartbeat marshals a KindHeartbeat payload: the sending
// orderer's last delivered block number.
func EncodeHeartbeat(lastDelivered uint64) []byte {
	e := codec.NewBuf(8)
	e.Uvarint(lastDelivered)
	return e.Bytes()
}

// DecodeHeartbeat parses a KindHeartbeat payload.
func DecodeHeartbeat(data []byte) (uint64, error) {
	d := codec.NewDec(data)
	last := d.Uvarint()
	return last, d.Done()
}

// FNV1a is the 32-bit FNV-1a hash of s. Every place that spreads work by
// name uses it — which orderer takes a transaction id first (the
// transport's route and a peer's forward must agree, or a resubmission
// reaches a different orderer than the original) and the per-user retry
// jitter — so there is exactly one such rule.
func FNV1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Wire message kinds between peers and orderer nodes.
const (
	// KindSubmit carries one marshalled transaction, peer/client → orderer.
	KindSubmit = "ord.submit"
	// KindCheckpoint carries one marshalled checkpoint, peer → orderer.
	KindCheckpoint = "ord.checkpoint"
	// KindBlock carries one marshalled block, orderer → peer.
	KindBlock = "ord.block"
	// KindSubscribe asks an orderer to add the sender to its delivery
	// peers — sent by a database node failing over from a dead orderer
	// (§3.6 node recovery, extended to orderer crashes).
	KindSubscribe = "ord.subscribe"
	// KindUnsubscribe asks an orderer to drop the sender from its
	// delivery peers — sent by a node that hears a heartbeat from an
	// orderer it no longer receives deliveries from, so a recovered
	// orderer stops double-delivering after a failover.
	KindUnsubscribe = "ord.unsubscribe"
	// KindHeartbeat carries an orderer's last delivered block number
	// (uvarint) to its delivery peers, proving liveness between blocks so
	// peers can distinguish "no traffic" from "my orderer is dead".
	KindHeartbeat = "ord.heartbeat"
	// KindBlockFetch asks an orderer to deliver again the blocks [from, to]
	// (two uvarints, as in the peers' block request) that it still retains —
	// sent by a database node whose peers cannot supply a missing block
	// because its delivery was lost on every link.
	KindBlockFetch = "ord.blockfetch"
)

// Config tunes block cutting.
type Config struct {
	// BlockSize is the maximum number of transactions per block.
	BlockSize int
	// BlockTimeout is the maximum time since the first pending
	// transaction before a block is cut anyway (§4.4).
	BlockTimeout time.Duration
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 100
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 100 * time.Millisecond
	}
	return c
}

// Cutter accumulates transactions and checkpoints into blocks with
// deterministic cutting rules. It is not goroutine-safe; each orderer
// drives its own cutter from its (totally ordered) input stream, so all
// orderers cut identical blocks.
type Cutter struct {
	cfg      Config
	pending  []*ledger.Transaction
	seen     map[string]bool
	cps      []*ledger.Checkpoint
	cpSeen   map[cpKey]struct{}
	next     uint64
	lastHash ledger.Hash
}

// cpKey names a checkpoint for deduplication: one per peer and block.
type cpKey struct {
	peer  string
	block uint64
}

// NewCutter returns a cutter starting at block 1.
func NewCutter(cfg Config) *Cutter {
	return &Cutter{
		cfg:    cfg.WithDefaults(),
		seen:   make(map[string]bool),
		cpSeen: make(map[cpKey]struct{}),
		next:   1,
	}
}

// NextBlock returns the number the next cut block will carry.
func (c *Cutter) NextBlock() uint64 { return c.next }

// Pending returns the number of accumulated transactions.
func (c *Cutter) Pending() int { return len(c.pending) }

// AddTx adds a transaction (duplicates by ID are dropped) and returns a
// cut block when the size threshold is reached, else nil.
func (c *Cutter) AddTx(tx *ledger.Transaction, ts int64) *ledger.Block {
	if c.seen[tx.ID] {
		return nil
	}
	c.seen[tx.ID] = true
	c.pending = append(c.pending, tx)
	if len(c.pending) >= c.cfg.BlockSize {
		return c.cut(ts)
	}
	return nil
}

// AddCheckpoint queues a checkpoint for inclusion in the next block.
func (c *Cutter) AddCheckpoint(cp *ledger.Checkpoint) {
	key := cpKey{cp.Peer, cp.Block}
	if _, dup := c.cpSeen[key]; dup {
		return
	}
	c.cpSeen[key] = struct{}{}
	c.cps = append(c.cps, cp)
}

// TimeToCut handles a time-to-cut marker for the given block number: the
// first marker for the current block cuts it (if non-empty); later
// duplicates are ignored (§4.4).
func (c *Cutter) TimeToCut(block uint64, ts int64) *ledger.Block {
	if block != c.next || len(c.pending) == 0 {
		return nil
	}
	return c.cut(ts)
}

// Reset repositions the cutter at the given next block number and chain
// hash, keeping pending transactions and dedup state. Used by the BFT
// service when a new leader takes over mid-chain.
func (c *Cutter) Reset(next uint64, lastHash ledger.Hash) {
	c.next = next
	c.lastHash = lastHash
}

func (c *Cutter) cut(ts int64) *ledger.Block {
	n := len(c.pending)
	if n > c.cfg.BlockSize {
		n = c.cfg.BlockSize
	}
	b := &ledger.Block{
		Number:      c.next,
		PrevHash:    c.lastHash,
		Timestamp:   ts,
		Txs:         append([]*ledger.Transaction(nil), c.pending[:n]...),
		Checkpoints: c.cps,
	}
	b.ComputeHash()
	c.pending = append([]*ledger.Transaction(nil), c.pending[n:]...)
	c.cps = nil
	c.next++
	c.lastHash = b.Hash
	return b
}
