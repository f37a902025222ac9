// Package core implements the database peer node — the paper's primary
// contribution. A node owns a versioned relational store, executes smart
// contracts, receives ordered blocks, and commits every transaction in
// the block order determined by consensus, using the SSI variants of §3.3
// (order-then-execute) and §3.4 (execute-order-in-parallel, with SSI
// based on block height). It also implements the checkpointing phase of
// §3.3.4 (which the paper left unimplemented) and the crash recovery
// protocol of §3.6.
//
// Block processing is a three-stage pipeline with cross-block overlap:
// Execute (concurrent contract execution against the block snapshot) and
// Commit (SSI analysis + commit-turn validation in block order, ending
// at the height bump) form the commit-critical path, while Seal
// (write-set digest, the block's outcome in the block store — sys_ledger's
// statuses and the outcome frame — checkpoint comparison, durability
// fsync, checkpoint broadcast, notifications) runs on a background sealer so
// block N's bookkeeping overlaps block N+1's execution; only §3.6 replay
// seals inline. See pipeline.go and docs/adr/0002-block-pipeline.md.
//
// This file holds configuration, lifecycle and accessors. Each other job
// has one file and one mechanism: genesis.go, submit.go, intake.go,
// notify.go (SubscribeAll, the only path to a client), execqueue.go (the
// only snapshot-height wait), processor.go, antientropy.go, stage_*.go.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb/internal/engine"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/proc"
	"bcrdb/internal/simnet"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// Flow selects the transaction flow of §3.
type Flow uint8

// Flows.
const (
	// OrderThenExecute: blocks are ordered first; all transactions of a
	// block then execute concurrently against the pre-block snapshot
	// (§3.3).
	OrderThenExecute Flow = iota
	// ExecuteOrder: execution starts at submission time against a
	// client-chosen snapshot height while ordering happens in parallel
	// (§3.4).
	ExecuteOrder
)

// Wire kinds between peers and clients.
const (
	// KindSubmit carries a client transaction to a peer (execute-order flow).
	KindSubmit = "peer.submit"
	// KindForward relays a transaction between peers (§3.4.1).
	KindForward = "peer.forward"
	// KindBlockReq asks a peer for missing blocks: payload [from, to].
	KindBlockReq = "peer.blockreq"
	// KindBlockResp returns one block.
	KindBlockResp = "peer.blockresp"
	// KindTipReq carries the sender's chain tip (uvarint) and asks the
	// receiver for its own — the anti-entropy tip gossip (§3.6 extended).
	KindTipReq = "peer.tipreq"
	// KindTip answers KindTipReq with the responder's chain tip (uvarint).
	KindTip = "peer.tip"
)

const (
	// sealQueueCap bounds how many committed-but-unsealed blocks may be
	// queued for the background sealer before the commit stage blocks
	// (backpressure).
	sealQueueCap = 64
	// pendingAhead bounds the out-of-order block buffer: deliveries more
	// than this many blocks above the chain tip are dropped (the tip is
	// remembered and the range re-requested instead of buffering
	// unboundedly).
	pendingAhead = 512
)

// Config describes one database node.
type Config struct {
	Name string // endpoint name, e.g. "db.org1"
	Org  string

	Flow Flow
	// SerialExecution makes the block processor execute transactions one
	// at a time — the Ethereum-style baseline of §5.1.
	SerialExecution bool

	// Orderers are the ordering-service endpoints this node submits
	// transactions and checkpoints to — and the failover ring: a node
	// that hears nothing from its delivering orderer for FailoverTimeout
	// re-subscribes to the next entry.
	Orderers []string
	// DeliverFrom names the orderer this node initially receives block
	// deliveries from. Defaults to Orderers[0].
	DeliverFrom string
	// Peers are all database-node endpoints (including this one), used
	// for transaction forwarding and block catch-up.
	Peers []string

	// FailoverTimeout is how long the node tolerates silence (no block,
	// no heartbeat) from its delivering orderer before re-subscribing to
	// the next one. Defaults to 2s; must comfortably exceed the orderers'
	// heartbeat interval (250ms).
	FailoverTimeout time.Duration
	// AntiEntropyEvery is the self-healing tick: tip gossip to a rotating
	// peer, catch-up re-requests with exponential backoff, and the
	// orderer liveness check. Defaults to 250ms.
	AntiEntropyEvery time.Duration

	// DataDir enables file-backed persistence for crash recovery: the
	// block log <Name>.blocks and, with the disk backend, the storage log
	// <Name>.store.wal. Empty means in-memory only.
	DataDir string

	// Backend selects the storage implementation: storage.KindMemory
	// (default) keeps all table versions in memory and rebuilds them by
	// re-executing the block store on restart; storage.KindDisk
	// additionally append-ahead-logs committed row versions and restores
	// them by WAL replay, skipping re-execution of already-durable
	// blocks. KindDisk requires DataDir.
	Backend storage.Kind

	// CheckpointEvery emits a checkpoint every N blocks (§3.3.4);
	// defaults to 1.
	CheckpointEvery uint64
}

// TxResult is the outcome of one transaction, delivered via
// notifications.
type TxResult struct {
	ID        string
	Block     uint64
	Committed bool
	Reason    string
}

// execution tracks one transaction being executed (§4.2 TxMetadata).
type execution struct {
	tx     *ledger.Transaction
	rec    *storage.TxRecord
	err    error
	result types.Value
	done   chan struct{}
	ran    time.Duration
}

// Node is one database peer.
type Node struct {
	cfg    Config
	signer *identity.Signer
	// netReg holds node-level identities: peers and orderers. Client
	// identities live in the replicated sys_certs table.
	netReg *identity.Registry

	store  *storage.Store
	eng    *engine.Engine
	interp *proc.Interp

	// blocks is the chain and, with a DataDir, the node's block log.
	blocks *ledger.BlockStore
	// ledger derives sys_ledger from blocks and their outcomes, and holds
	// the recorded transaction ids and local xids (ledgerview.go).
	ledger *ledgerView

	ep *simnet.Endpoint
	// ordOffset is this node's place in cfg.Peers: it shifts the orderer
	// an execute-order submission is forwarded to (onSubmit).
	ordOffset uint32

	// Execution registry (TxMetadata).
	execMu    sync.Mutex
	executing map[string]*execution

	// Execute-stage scheduler and worker pool (execqueue.go); the pool,
	// like the prewarm pool below, has GOMAXPROCS workers.
	execQ  *execQueue
	execWG sync.WaitGroup

	// Block-intake signature prewarm pool (prewarm.go). verifyCh holds
	// four block offers per worker (one block is offered once per
	// worker); prewarmBlock drops offers that find it full.
	verifyCh chan *prewarmJob
	verifyWG sync.WaitGroup

	// Incoming block sequencing. pending is bounded by pendingAhead
	// (far-future deliveries are re-requested, not buffered).
	blockMu sync.Mutex
	pending map[uint64]*ledger.Block
	blockCh chan *ledger.Block

	// Self-healing delivery state (antientropy.go).
	heal healState

	// Checkpoint bookkeeping (§3.3.4). This node's own hash of a block is
	// the block's outcome in blocks. peerHashes holds peer checkpoints for
	// blocks not sealed yet, and the agreeing peers of sealed blocks above
	// lastCP (processor.go).
	cpMu       sync.Mutex
	peerHashes map[uint64]map[string]ledger.Hash
	lastCP     uint64
	alerts     []string
	logFailed  bool // the first failed outcome write is in alerts

	// Seal pipeline (stage 3). sealAbort makes the sealer drop queued
	// work (test crash injection); sealPause parks the sealer between
	// tasks (test hook).
	// sealedHeight trails Height() by the unsealed window.
	sealCh       chan *sealTask
	sealWG       sync.WaitGroup
	sealAbort    chan struct{}
	sealPause    atomic.Bool
	sealedHeight atomic.Int64
	diskBacked   bool

	// Decoded client public keys (authenticate hot path). certsEpoch
	// counts committed writes to sys_certs; an entry is valid only for
	// the epoch it was read under and for query heights at or above the
	// height it was read at, so cert changes are never papered over.
	certMu     sync.Mutex
	certCache  map[string]certCacheEntry
	certsEpoch atomic.Uint64

	// Notifications.
	subMu sync.Mutex
	allCh []chan TxResult

	// privMu makes a private transaction's validation and commit one
	// step against every other private commit (ExecPrivate).
	privMu sync.Mutex

	metrics Metrics

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// NewNode constructs a node, opening persistent state when DataDir is
// set. Call Bootstrap (on a fresh node) and then Start.
func NewNode(cfg Config, signer *identity.Signer, netReg *identity.Registry, net *simnet.Network) (*Node, error) {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.FailoverTimeout <= 0 {
		cfg.FailoverTimeout = 2 * time.Second
	}
	if cfg.AntiEntropyEvery <= 0 {
		cfg.AntiEntropyEvery = 250 * time.Millisecond
	}
	if cfg.DeliverFrom == "" && len(cfg.Orderers) > 0 {
		cfg.DeliverFrom = cfg.Orderers[0]
	}
	var storePath string // the memory backend ignores it
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
		old := dataFile(cfg, ".wal")
		if _, err := os.Stat(old); err == nil {
			return nil, fmt.Errorf("core: %s: block outcomes kept apart from the block log predate the one block log (ADR-0009); this data dir cannot be served", old)
		}
		storePath = dataFile(cfg, ".store.wal")
	}
	st, err := storage.Open(cfg.Backend, storePath)
	if err != nil {
		return nil, err
	}
	eng := engine.New(st)
	n := &Node{
		cfg:        cfg,
		signer:     signer,
		netReg:     netReg,
		store:      st,
		eng:        eng,
		interp:     proc.NewInterp(eng),
		executing:  make(map[string]*execution),
		pending:    make(map[uint64]*ledger.Block),
		blockCh:    make(chan *ledger.Block, 1024),
		peerHashes: make(map[uint64]map[string]ledger.Hash),
		certCache:  make(map[string]certCacheEntry),
		verifyCh:   make(chan *prewarmJob, 4*runtime.GOMAXPROCS(0)),
		sealCh:     make(chan *sealTask, sealQueueCap),
		sealAbort:  make(chan struct{}),
		stopped:    make(chan struct{}),
		diskBacked: cfg.Backend == storage.KindDisk,
		ordOffset:  uint32(max(slices.Index(cfg.Peers, cfg.Name), 0)),
	}
	n.execQ = newExecQueue(st.Height)
	for i, o := range cfg.Orderers {
		if o == cfg.DeliverFrom {
			n.heal.ordererIdx = i
		}
	}
	n.heal.lastOrderer = time.Now()

	if cfg.DataDir != "" {
		bs, err := ledger.OpenFileStore(dataFile(cfg, ".blocks"))
		if err != nil {
			n.closeFiles()
			return nil, err
		}
		n.blocks = bs
	} else {
		n.blocks = ledger.NewBlockStore()
	}

	// sys_ledger is registered here, not in Bootstrap: a restored disk
	// store skips Bootstrap, and the registration is never logged. A store
	// log that already holds a table of that name was written when the
	// ledger was still materialised; serving it would show stale rows.
	n.ledger = newLedgerView(n.blocks)
	if err := st.RegisterDerived(ledgerSchema(), ledgerIndexes, n.ledger.scan); err != nil {
		n.closeFiles()
		return nil, fmt.Errorf("core: %s: registering the derived %s (a store log that materialises it predates the derived ledger and cannot be served): %w",
			cfg.Name, ledgerTable, err)
	}

	// The handler goes in once n.ep is set: a peer's message can arrive
	// the moment the name is registered, and its handler may answer.
	ep, err := net.Register(cfg.Name, nil)
	if err != nil {
		n.closeFiles()
		return nil, err
	}
	n.ep = ep
	ep.SetHandler(n.onMessage)
	return n, nil
}

// dataFile is the path of one of the node's files in its DataDir.
func dataFile(cfg Config, suffix string) string {
	return filepath.Join(cfg.DataDir, cfg.Name+suffix)
}

// closeFiles releases the block store and the storage backend.
func (n *Node) closeFiles() {
	if n.blocks != nil {
		n.blocks.Close()
	}
	n.store.Close()
}

// Start launches recovery, the sealer, catch-up and the block processor.
// It blocks until local recovery (block store replay) completes; replay
// runs the pipeline stages synchronously, so by the time Start returns
// every recovered block is fully sealed.
func (n *Node) Start() error {
	// The execute-stage pool must run before recovery: replay drives the
	// pipeline stages synchronously, and its executions run on these
	// workers.
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		n.execWG.Add(1)
		go n.execWorker()
		n.verifyWG.Add(1)
		go n.verifyLoop()
	}
	if err := n.recoverLocal(); err != nil {
		return err
	}
	n.sealWG.Add(1)
	go n.sealLoop()
	n.wg.Add(1)
	go n.processLoop()
	n.heal.mu.Lock()
	n.heal.lastOrderer = time.Now()
	n.heal.mu.Unlock()
	n.wg.Add(1)
	go n.antiEntropyLoop()
	n.requestCatchUp()
	return nil
}

// Stop halts the node, draining the seal queue so every committed block
// is sealed (outcomes published and logged, durability fsync) before the
// files close. The store stays readable, except that on a node with a
// DataDir a sys_ledger read that needs a block fails: the block log it
// reads blocks back from is closed.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopped)
		n.ep.Unregister()
		n.wg.Wait()
		// The block processor is gone; fail queued executions and let the
		// pools drain. (verifyCh is never closed — onBlock sends to it
		// without blocking, and may still do so.)
		n.execQ.close()
		n.execWG.Wait()
		n.verifyWG.Wait()
		// The block processor has exited; flush the sealer's backlog.
		close(n.sealCh)
		n.sealWG.Wait()
		n.closeFiles()
	})
}

// --- small accessors ----------------------------------------------------------

// Name returns the node's endpoint name.
func (n *Node) Name() string { return n.cfg.Name }

// Org returns the owning organization.
func (n *Node) Org() string { return n.cfg.Org }

// Height returns the node's committed block height.
func (n *Node) Height() int64 { return n.store.Height() }

// SealedHeight returns the newest block whose seal (sys_ledger outcomes,
// write-set checkpoint, outcome frame, durability fsync) has completed. It
// trails Height() by the pipeline's in-flight window. Readers that
// consume seal outputs (sys_ledger queries, checkpoint state) should
// wait on this rather than Height.
func (n *Node) SealedHeight() int64 { return n.sealedHeight.Load() }

// Engine exposes the SQL engine for read-only queries (§3.7: individual
// SELECTs run on one node and are not recorded on the chain).
func (n *Node) Engine() *engine.Engine { return n.eng }

// Store exposes the node's store (tests, state hashing).
func (n *Node) Store() *storage.Store { return n.store }

// BlockStore exposes the chain (tests, audits).
func (n *Node) BlockStore() *ledger.BlockStore { return n.blocks }

// Metrics exposes the node's counters.
func (n *Node) Metrics() *Metrics { return &n.metrics }

// StateHash returns the deterministic state digest at a height.
func (n *Node) StateHash(height int64) [32]byte { return n.store.StateHash(height) }

// LastCheckpoint returns the newest block for which a quorum of peers
// agreed with this node's write-set hash.
func (n *Node) LastCheckpoint() uint64 {
	n.cpMu.Lock()
	defer n.cpMu.Unlock()
	return n.lastCP
}

// Alerts returns divergence alerts raised by checkpoint comparison
// (security properties 3 and 5 of §3.5).
func (n *Node) Alerts() []string {
	n.cpMu.Lock()
	defer n.cpMu.Unlock()
	return append([]string(nil), n.alerts...)
}

// Query runs a read-only SQL query at the current height.
func (n *Node) Query(sql string, params ...types.Value) (*engine.Result, error) {
	ctx := &engine.ExecCtx{Mode: engine.ModeReadOnly, Height: n.store.Height(), Params: params}
	return n.eng.ExecSQL(ctx, sql)
}

// QueryAt runs a read-only SQL query at a historic height.
func (n *Node) QueryAt(height int64, sql string, params ...types.Value) (*engine.Result, error) {
	ctx := &engine.ExecCtx{Mode: engine.ModeReadOnly, Height: height, Params: params}
	return n.eng.ExecSQL(ctx, sql)
}

// ExecPrivate runs a statement on the node's non-blockchain schema
// (§3.7): DDL creates node-local tables; DML commits locally without
// consensus. Private tables never participate in contracts, checkpoints
// or state hashes, but read-only queries may join them with blockchain
// tables (reports combining both schemas).
func (n *Node) ExecPrivate(sql string, params ...types.Value) (*engine.Result, error) {
	res, rec, err := n.execPrivate(sql, params)
	if err != nil {
		return nil, err
	}
	if err := n.commitPrivate(rec); err != nil {
		return nil, err
	}
	return res, nil
}

// execPrivate runs a private statement at the current height without
// committing it.
func (n *Node) execPrivate(sql string, params []types.Value) (*engine.Result, *storage.TxRecord, error) {
	h := n.store.Height()
	rec := storage.NewTxRecord(n.store.BeginTx(), h)
	ctx := &engine.ExecCtx{Mode: engine.ModePrivate, Height: h, Rec: rec, Params: params}
	res, err := n.eng.ExecSQL(ctx, sql)
	if err != nil {
		n.store.AbortTx(rec)
		return nil, nil, err
	}
	return res, rec, nil
}

// commitPrivate validates rec against the private commits before it
// (first committer wins on a superseded row or a unique key) and
// commits it at its snapshot height, or aborts it with the validation
// error.
func (n *Node) commitPrivate(rec *storage.TxRecord) error {
	n.privMu.Lock()
	defer n.privMu.Unlock()
	if err := n.store.Validate(rec, rec.SnapshotHeight); err != nil {
		n.store.AbortTx(rec)
		return err
	}
	n.store.CommitTx(rec, rec.SnapshotHeight)
	return nil
}

// Vacuum prunes superseded row versions older than the horizon block
// (§7). Provenance queries below the horizon lose history; live data is
// untouched. It returns the number of versions removed.
func (n *Node) Vacuum(horizon int64) int {
	if h := n.store.Height(); horizon > h {
		horizon = h
	}
	return n.store.Vacuum(horizon)
}
