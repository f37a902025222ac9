package core

import (
	"reflect"
	"sync/atomic"
	"time"
)

// counters is the one list of a node's counters: Metrics holds them as
// atomics, Snapshot as plain values. All are cumulative; callers snapshot
// twice and diff.
//
// They are the micro-metrics of §5: block receive/process rates (brr,
// bpr), block processing/execution/commit times (bpt, bet, bct),
// transaction execution time (tet), missing transactions (mt) and the
// block-processor busy time that yields system utilization (su) — plus
// the pipeline's seal-stage time (bst). With the pipelined block
// processor, bpt covers only the commit-critical path (execute + commit,
// bpt = bet + bct); the seal stage — ledger rows, write-set hash, WAL
// append, checkpointing, notifications — is measured separately by
// BlockSealNanos and overlaps the next block's execution.
type counters[T any] struct {
	BlocksReceived  T // brr numerator
	BlocksProcessed T // bpr numerator
	BlocksSealed    T // bst denominator

	BlockProcessNanos T // Σ bpt (execute + commit critical path)
	BlockExecNanos    T // Σ bet
	BlockCommitNanos  T // Σ bct
	BlockSealNanos    T // Σ bst (seal stage, off the critical path)

	TxExecNanos T // Σ tet
	TxExecCount T

	TxCommitted T
	TxAborted   T
	MissingTxs  T // mt numerator (execute-order-in-parallel)

	BusyNanos T // block processor busy time (su numerator)

	// CommitGroups counts one per non-empty block. It outlives the
	// withdrawn table-partitioned commit turn (docs/adr/0004) only
	// because the benchmark harness reads Snapshot.CommitGroups.
	CommitGroups T
	// SigPrewarms counts signatures prewarmed by the block-intake verify
	// pool (docs/adr/0004).
	SigPrewarms T

	// Self-healing delivery (docs/adr/0005): catch-up ranges requested
	// from peers, orderer failovers (re-subscribes after a silent
	// delivery deadline), and client-side submit retries recorded against
	// the client's home node.
	CatchUpRequests  T
	OrdererFailovers T
	ClientRetries    T
}

// Metrics is a node's live counters.
type Metrics struct {
	counters[atomic.Int64]
}

// Snapshot is a point-in-time copy of all counters, plus SealQueueDepth,
// the blocks committed but not yet sealed at At.
type Snapshot struct {
	At time.Time
	counters[int64]
	SealQueueDepth int64
}

// Snapshot captures the current counters. It walks the counter list by
// reflection, which costs nothing that matters at a window's edges.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{At: time.Now()}
	src, dst := reflect.ValueOf(&m.counters).Elem(), reflect.ValueOf(&s.counters).Elem()
	for i := range dst.NumField() {
		dst.Field(i).SetInt(src.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	// The two counters are not read at one instant: clamp.
	s.SealQueueDepth = max(s.BlocksProcessed-s.BlocksSealed, 0)
	return s
}

// Window is the difference of two snapshots, exposing the paper's
// derived metrics.
type Window struct {
	Elapsed time.Duration
	Diff    Snapshot
}

// Sub computes the window between two snapshots (b after a). The gauge
// SealQueueDepth is b's, not a difference.
func (b Snapshot) Sub(a Snapshot) Window {
	d := Snapshot{SealQueueDepth: b.SealQueueDepth}
	bv, av, dv := reflect.ValueOf(b.counters), reflect.ValueOf(a.counters), reflect.ValueOf(&d.counters).Elem()
	for i := range dv.NumField() {
		dv.Field(i).SetInt(bv.Field(i).Int() - av.Field(i).Int())
	}
	return Window{Elapsed: b.At.Sub(a.At), Diff: d}
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
