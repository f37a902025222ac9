package core

import (
	"sync/atomic"
	"time"
)

// Metrics collects the micro-metrics of §5: block receive/process rates
// (brr, bpr), block processing/execution/commit times (bpt, bet, bct),
// transaction execution time (tet), missing transactions (mt) and the
// block-processor busy time that yields system utilization (su) — plus
// the pipeline's seal-stage timings (bst, seal queue depth).
//
// With the pipelined block processor, bpt covers only the commit-critical
// path (execute + commit, bpt = bet + bct); the seal stage — ledger rows,
// write-set hash, WAL append, checkpointing, notifications — is measured
// separately by BlockSealNanos and overlaps the next block's execution.
// All counters except SealQueueDepth are cumulative; callers snapshot
// twice and diff. SealQueueDepth is an instantaneous gauge.
type Metrics struct {
	BlocksReceived  atomic.Int64 // brr numerator
	BlocksProcessed atomic.Int64 // bpr numerator
	BlocksSealed    atomic.Int64 // bst denominator

	BlockProcessNanos atomic.Int64 // Σ bpt (execute + commit critical path)
	BlockExecNanos    atomic.Int64 // Σ bet
	BlockCommitNanos  atomic.Int64 // Σ bct
	BlockSealNanos    atomic.Int64 // Σ bst (seal stage, off the critical path)

	TxExecNanos atomic.Int64 // Σ tet
	TxExecCount atomic.Int64

	TxCommitted atomic.Int64
	TxAborted   atomic.Int64
	MissingTxs  atomic.Int64 // mt numerator (execute-order-in-parallel)

	BusyNanos atomic.Int64 // block processor busy time (su numerator)

	SealQueueDepth atomic.Int64 // gauge: blocks committed but not yet sealed

	// CommitGroups counts one per non-empty block. It outlives the
	// withdrawn table-partitioned commit turn (docs/adr/0004) only
	// because the benchmark harness reads Snapshot.CommitGroups.
	CommitGroups atomic.Int64
	// SigPrewarms counts signatures prewarmed by the block-intake verify
	// pool (docs/adr/0004).
	SigPrewarms atomic.Int64

	// Self-healing delivery (docs/adr/0005): catch-up ranges requested
	// from peers, orderer failovers (re-subscribes after a silent
	// delivery deadline), and client-side submit retries recorded against
	// the client's home node.
	CatchUpRequests  atomic.Int64
	OrdererFailovers atomic.Int64
	ClientRetries    atomic.Int64
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	At                time.Time
	BlocksReceived    int64
	BlocksProcessed   int64
	BlocksSealed      int64
	BlockProcessNanos int64
	BlockExecNanos    int64
	BlockCommitNanos  int64
	BlockSealNanos    int64
	TxExecNanos       int64
	TxExecCount       int64
	TxCommitted       int64
	TxAborted         int64
	MissingTxs        int64
	BusyNanos         int64
	SealQueueDepth    int64
	CommitGroups      int64
	SigPrewarms       int64
	CatchUpRequests   int64
	OrdererFailovers  int64
	ClientRetries     int64
}

// Snapshot captures the current counters.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		At:                time.Now(),
		BlocksReceived:    m.BlocksReceived.Load(),
		BlocksProcessed:   m.BlocksProcessed.Load(),
		BlocksSealed:      m.BlocksSealed.Load(),
		BlockProcessNanos: m.BlockProcessNanos.Load(),
		BlockExecNanos:    m.BlockExecNanos.Load(),
		BlockCommitNanos:  m.BlockCommitNanos.Load(),
		BlockSealNanos:    m.BlockSealNanos.Load(),
		TxExecNanos:       m.TxExecNanos.Load(),
		TxExecCount:       m.TxExecCount.Load(),
		TxCommitted:       m.TxCommitted.Load(),
		TxAborted:         m.TxAborted.Load(),
		MissingTxs:        m.MissingTxs.Load(),
		BusyNanos:         m.BusyNanos.Load(),
		SealQueueDepth:    m.SealQueueDepth.Load(),
		CommitGroups:      m.CommitGroups.Load(),
		SigPrewarms:       m.SigPrewarms.Load(),
		CatchUpRequests:   m.CatchUpRequests.Load(),
		OrdererFailovers:  m.OrdererFailovers.Load(),
		ClientRetries:     m.ClientRetries.Load(),
	}
}

// Window is the difference of two snapshots, exposing the paper's
// derived metrics.
type Window struct {
	Elapsed time.Duration
	Diff    Snapshot
}

// Sub computes the window between two snapshots (b after a).
func (b Snapshot) Sub(a Snapshot) Window {
	return Window{
		Elapsed: b.At.Sub(a.At),
		Diff: Snapshot{
			BlocksReceived:    b.BlocksReceived - a.BlocksReceived,
			BlocksProcessed:   b.BlocksProcessed - a.BlocksProcessed,
			BlocksSealed:      b.BlocksSealed - a.BlocksSealed,
			BlockProcessNanos: b.BlockProcessNanos - a.BlockProcessNanos,
			BlockExecNanos:    b.BlockExecNanos - a.BlockExecNanos,
			BlockCommitNanos:  b.BlockCommitNanos - a.BlockCommitNanos,
			BlockSealNanos:    b.BlockSealNanos - a.BlockSealNanos,
			TxExecNanos:       b.TxExecNanos - a.TxExecNanos,
			TxExecCount:       b.TxExecCount - a.TxExecCount,
			TxCommitted:       b.TxCommitted - a.TxCommitted,
			TxAborted:         b.TxAborted - a.TxAborted,
			MissingTxs:        b.MissingTxs - a.MissingTxs,
			BusyNanos:         b.BusyNanos - a.BusyNanos,
			SealQueueDepth:    b.SealQueueDepth,
			CommitGroups:      b.CommitGroups - a.CommitGroups,
			SigPrewarms:       b.SigPrewarms - a.SigPrewarms,
			CatchUpRequests:   b.CatchUpRequests - a.CatchUpRequests,
			OrdererFailovers:  b.OrdererFailovers - a.OrdererFailovers,
			ClientRetries:     b.ClientRetries - a.ClientRetries,
		},
	}
}

func (w Window) seconds() float64 { return w.Elapsed.Seconds() }

// BRR is the block receive rate (blocks/s).
func (w Window) BRR() float64 { return float64(w.Diff.BlocksReceived) / w.seconds() }

// BPR is the block processing rate (blocks/s).
func (w Window) BPR() float64 { return float64(w.Diff.BlocksProcessed) / w.seconds() }

// BPT is the mean block processing time (ms).
func (w Window) BPT() float64 { return msPer(w.Diff.BlockProcessNanos, w.Diff.BlocksProcessed) }

// BET is the mean block execution time (ms).
func (w Window) BET() float64 { return msPer(w.Diff.BlockExecNanos, w.Diff.BlocksProcessed) }

// BCT is the mean block commit time (ms): bpt − bet by construction.
func (w Window) BCT() float64 { return msPer(w.Diff.BlockCommitNanos, w.Diff.BlocksProcessed) }

// BST is the mean block seal time (ms): ledger rows, write-set digest,
// WAL append, durability fsync, checkpoint and notifications. With the
// pipeline enabled this overlaps the next block's bet and bct.
func (w Window) BST() float64 { return msPer(w.Diff.BlockSealNanos, w.Diff.BlocksSealed) }

// TET is the mean transaction execution time (ms).
func (w Window) TET() float64 { return msPer(w.Diff.TxExecNanos, w.Diff.TxExecCount) }

// MT is missing transactions per second.
func (w Window) MT() float64 { return float64(w.Diff.MissingTxs) / w.seconds() }

// SU is the system utilization: fraction of time the block processor was
// busy, as a percentage.
func (w Window) SU() float64 {
	return 100 * float64(w.Diff.BusyNanos) / float64(w.Elapsed.Nanoseconds())
}

// Throughput is committed transactions per second.
func (w Window) Throughput() float64 { return float64(w.Diff.TxCommitted) / w.seconds() }

func msPer(nanos, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(nanos) / float64(count) / 1e6
}
