package storage

import (
	"fmt"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// Backend is the pluggable storage layer underneath the SQL engine and
// the block processor. It captures everything the rest of the system
// needs from a node's versioned relational store: catalog management,
// snapshot-at-block-height reads for SSI, provisional writes with
// commit-turn validation, deterministic state hashing, and the
// durability point of each block.
//
// Two implementations exist:
//
//   - *Store (KindMemory): the original purely in-memory store — the
//     default for tests and benchmarks;
//   - *DiskStore (KindDisk): a durable store that append-ahead-logs every
//     committed mutation through internal/wal and rebuilds committed
//     state by WAL replay on startup.
//
// All implementations must be safe for concurrent use by the block
// processor, executing transactions, and read-only queries.
type Backend interface {
	// --- lifecycle ------------------------------------------------------

	// Close releases any resources (files, fds). The store stays readable
	// for in-memory state but must not be written afterwards.
	Close() error

	// --- chain height and transaction ids --------------------------------

	Height() int64
	// SetHeight records that all blocks up to h are committed in memory.
	// It is the visibility bump the block processor's commit stage issues
	// so the next block's executions can proceed; it makes no durability
	// promise (see MarkDurable).
	SetHeight(h int64)
	// MarkDurable is the durability point for everything committed at or
	// below block h: the seal stage calls it once per block, off the
	// commit critical path. Volatile backends treat it as a no-op; the
	// disk backend appends a height frame and fsyncs, flushing every
	// preceding commit frame of the block with it.
	MarkDurable(h int64)
	// BeginTx allocates a node-local id; the store keeps no record of it.
	BeginTx() TxID

	// --- catalog (DDL) --------------------------------------------------

	CreateTable(schema Schema) error
	DropTable(name string) error
	CreateIndex(table, name string, cols []int, unique bool) error
	// RegisterDerived adds a read-only table whose rows the given provider
	// computes on demand (derived.go); every write path refuses it.
	RegisterDerived(schema Schema, indexes []DerivedIndex, scan DerivedScan) error
	// SchemaEpoch is a counter that increases on every DDL change; caches
	// derived from the catalog (prepared plans, compiled contracts) are
	// valid only for the epoch they were built under.
	SchemaEpoch() uint64
	Table(name string) (*Table, error)
	HasTable(name string) bool

	// --- reads ----------------------------------------------------------

	ScanIndex(table, ixName string, rng index.Range, self TxID, height int64, mode ScanMode, fn func(v *RowVersion) bool) error
	IndexKeys(table string, ref uint64) map[string]types.Key
	CountVersions(table string) (int, error)
	CountVisible(table string, height int64) (int, error)

	// --- writes and commit turn -----------------------------------------

	Insert(rec *TxRecord, table string, row types.Row) (*RowVersion, error)
	MarkDelete(rec *TxRecord, table string, ref uint64) error
	Validate(rec *TxRecord, current int64) error
	CommitTx(rec *TxRecord, block int64)
	AbortTx(rec *TxRecord)

	// --- maintenance and integrity --------------------------------------

	Vacuum(horizon int64) int
	StateHash(height int64) [32]byte
}

// Compile-time checks that both implementations satisfy Backend.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*DiskStore)(nil)
)

// Kind names a storage backend implementation.
type Kind string

// Backend kinds.
const (
	// KindMemory is the purely in-memory store (the default).
	KindMemory Kind = "memory"
	// KindDisk is the durable WAL-backed store.
	KindDisk Kind = "disk"
)

// ParseKind validates a backend name ("" means memory).
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindMemory:
		return KindMemory, nil
	case KindDisk:
		return KindDisk, nil
	}
	return "", fmt.Errorf("storage: unknown backend %q (want %q or %q)", s, KindMemory, KindDisk)
}

// Open constructs a backend of the given kind. path is the WAL file
// location for KindDisk and is ignored for KindMemory.
func Open(kind Kind, path string) (Backend, error) {
	switch kind {
	case "", KindMemory:
		return NewStore(), nil
	case KindDisk:
		if path == "" {
			return nil, fmt.Errorf("storage: disk backend requires a WAL path")
		}
		return OpenDisk(path)
	}
	return nil, fmt.Errorf("storage: unknown backend kind %q", kind)
}

// Close implements Backend for the in-memory store (nothing to release).
func (s *Store) Close() error { return nil }

// MarkDurable implements Backend for the in-memory store: volatile state
// has no durability point.
func (s *Store) MarkDurable(h int64) {}
