// Package storage implements the versioned relational store underneath the
// engine: tables of row versions in PostgreSQL style, where every update
// flags the old version and inserts a new one, and nothing is ever purged.
//
// Each version carries two pieces of lineage, exactly as §4.3 of the paper
// prescribes:
//
//   - xmin / xmax         — node-local transaction ids (nondeterministic
//     across nodes, used for recovery and provenance);
//   - creator / deleter   — the *block* numbers that created and deleted
//     the version (deterministic across nodes; the basis
//     of SSI based on block height, §3.4.1).
//
// Visibility is purely a function of (snapshot block height, committed
// chain), which is what makes transaction execution deterministic on every
// replica regardless of scheduling. A table's versions sit in an array by
// heap ref, and a read of a unique key stops at its newest visible version.
//
// The store is pluggable behind the Backend interface (backend.go): the
// in-memory *Store here is the reference implementation and the default;
// *DiskStore (disk.go) adds durability by append-ahead-logging committed
// mutations through internal/wal and restoring state by WAL replay on
// startup. See README.md in this package and docs/adr/0001-storage-backends.md.
package storage

import (
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"

	"bcrdb/internal/codec"
	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// TxID is a node-local transaction identifier (the PostgreSQL xid
// equivalent). TxID 0 is reserved and never assigned.
type TxID uint64

// NoBlock marks an unset creator/deleter block stamp.
const NoBlock int64 = -1

// Column describes one column of a table.
type Column struct {
	Name    string
	Type    types.Kind
	NotNull bool
	// HasDefault/Default supply the value for columns omitted from an
	// INSERT column list. Defaults are constant (evaluated at CREATE
	// time) so replicas cannot diverge.
	HasDefault bool
	Default    types.Value
}

// Schema describes a table: columns and primary key ordinals.
type Schema struct {
	Name    string
	Columns []Column
	PKCols  []int // ordinals into Columns; never empty
	// Class partitions tables into the paper's blockchain schema
	// (replicated, contract-writable only) and the node-private
	// non-blockchain schema (§3.7).
	Class SchemaClass
}

// SchemaClass distinguishes replicated from node-private tables.
type SchemaClass uint8

// Schema classes.
const (
	ClassBlockchain SchemaClass = iota // replicated, mutated only via contracts
	ClassPrivate                       // node-local, ordinary transactions
	ClassSystem                        // sys_certs etc.; mutated by the node itself
)

// ColIndex returns the ordinal of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PKKey extracts the primary key of a row.
func (s *Schema) PKKey(row types.Row) types.Key {
	k := make(types.Key, len(s.PKCols))
	for i, c := range s.PKCols {
		k[i] = row[c]
	}
	return k
}

// RowVersion is one version of one logical row. Fields other than ID and
// Data are guarded by the owning table's mutex.
type RowVersion struct {
	ID   uint64 // heap reference, unique within the table
	Data types.Row

	Xmin TxID // creating transaction (node-local)
	Xmax TxID // deleting transaction, 0 if none

	CreatorBlk int64 // block that committed the insert; NoBlock while provisional
	DeleterBlk int64 // block that committed the delete; NoBlock if live
}

// --- transaction records -----------------------------------------------------

// ItemRef identifies a row version globally (table + heap ref).
type ItemRef struct {
	Table string
	Ref   uint64
}

// RangeRef identifies a scanned index range (for phantom detection and
// predicate rw-dependencies).
type RangeRef struct {
	Table string
	Index string
	Range index.Range
}

// TxRecord accumulates a transaction's read and write sets during
// execution. It is the unit the SSI analysis and the commit-turn
// validation consume. All population happens on the single goroutine
// executing the transaction.
type TxRecord struct {
	ID             TxID
	SnapshotHeight int64

	ReadRows   map[ItemRef]struct{} // versions actually read
	ReadRanges []RangeRef           // index ranges scanned
	Inserted   []ItemRef            // provisional new versions (insert + update-new)
	DeletedOld []ItemRef            // old versions this tx supersedes (update/delete)

	// ReadOnly transactions skip tracking entirely (§4.3: individual
	// SELECTs are not blockchain transactions).
	ReadOnly bool

	// Capture is filled by CommitTx with the transaction's applied
	// effects, snapshotted under the table locks, so the seal stage can
	// digest a block (§3.3.4 write-set hash) without re-reading the store
	// after the fact.
	Capture *WriteCapture
}

// WriteCapture records the effects a transaction actually applied at its
// commit turn: surviving inserted versions with their row data, and
// superseded versions with their primary keys. Orders match rec.Inserted
// and rec.DeletedOld, which is what makes the block digest deterministic.
type WriteCapture struct {
	Inserted []CapturedRow // surviving inserts (insert-and-delete-in-tx rows are dropped)
	Deleted  []CapturedRow // superseded versions; Row holds the primary key
}

// CapturedRow is one captured version: where it lives and what the seal
// stage needs to hash (the full row for inserts, the primary key for
// deletes). Row data is immutable after insert, so holding a reference is
// safe.
type CapturedRow struct {
	Table string
	Ref   uint64
	Row   types.Row
}

// NewTxRecord returns an empty record for a transaction executing at the
// given snapshot height.
func NewTxRecord(id TxID, height int64) *TxRecord {
	return &TxRecord{
		ID:             id,
		SnapshotHeight: height,
		ReadRows:       make(map[ItemRef]struct{}),
	}
}

// NoteRead records that the transaction read the given version.
func (r *TxRecord) NoteRead(table string, ref uint64) {
	if r.ReadOnly {
		return
	}
	r.ReadRows[ItemRef{table, ref}] = struct{}{}
}

// NoteRange records a scanned index range.
func (r *TxRecord) NoteRange(table, ixName string, rng index.Range) {
	if r.ReadOnly {
		return
	}
	r.ReadRanges = append(r.ReadRanges, RangeRef{table, ixName, rng})
}

// Supersedes reports whether the transaction superseded version ref of
// table — the delete half of its UPDATE, or its DELETE. The version is
// gone for the transaction itself while others still see it until commit.
// Transactions supersede few versions (a transfer two), so the list is
// searched, not indexed.
func (r *TxRecord) Supersedes(table string, ref uint64) bool {
	for _, ir := range r.DeletedOld {
		if ir.Ref == ref && ir.Table == table {
			return true
		}
	}
	return false
}

// HasWrites reports whether the transaction wrote anything.
func (r *TxRecord) HasWrites() bool {
	return len(r.Inserted) > 0 || len(r.DeletedOld) > 0
}

// Store is one node's database: catalog, heaps and indexes. A version's
// block stamps are the only commit record.
//
// The catalog is copy-on-write: readers resolve tables through one
// atomic pointer load with no lock at all, and DDL (rare, never inside
// block processing) publishes a fresh map under catMu. Row data is still
// guarded per table by Table.mu, so concurrent executions touching
// different tables never contend on a store-wide lock.
type Store struct {
	catMu  sync.Mutex                        // serializes DDL (copy-on-write swaps)
	tables atomic.Pointer[map[string]*Table] // immutable snapshot; lock-free reads

	nextTx atomic.Uint64
	height atomic.Int64 // last committed block number

	// epoch counts catalog (DDL) changes. The engine keys its prepared-plan
	// cache on it so CREATE/DROP TABLE and CREATE INDEX invalidate every
	// cached plan (a stale plan could keep scanning a dropped index or miss
	// a better new one).
	epoch atomic.Uint64
}

// Sentinel errors surfaced to the engine.
var (
	ErrNoSuchTable     = errors.New("storage: no such table")
	ErrTableExists     = errors.New("storage: table already exists")
	ErrNoSuchIndex     = errors.New("storage: no such index")
	ErrIndexExists     = errors.New("storage: index already exists")
	ErrNotNull         = errors.New("storage: NOT NULL constraint violated")
	ErrUniqueViolation = errors.New("storage: unique constraint violated")
	ErrArity           = errors.New("storage: wrong number of columns")
	ErrDerivedTable    = errors.New("storage: derived table cannot be written")
)

// NewStore returns an empty store at height 0 (genesis).
func NewStore() *Store {
	s := &Store{}
	empty := make(map[string]*Table)
	s.tables.Store(&empty)
	return s
}

// catalog returns the current table map snapshot. The map is immutable —
// DDL swaps in a copy — so callers may read it without locking.
func (s *Store) catalog() map[string]*Table { return *s.tables.Load() }

// Height returns the last committed block number.
func (s *Store) Height() int64 { return s.height.Load() }

// SchemaEpoch returns the catalog generation counter; it increases on
// every DDL change. Plans (and any other schema-derived caches) are valid
// only for the epoch they were built under.
func (s *Store) SchemaEpoch() uint64 { return s.epoch.Load() }

// SetHeight records that all blocks up to h are committed.
func (s *Store) SetHeight(h int64) { s.height.Store(h) }

// BeginTx allocates a fresh node-local transaction id.
func (s *Store) BeginTx() TxID { return TxID(s.nextTx.Add(1)) }

// --- state hashing -----------------------------------------------------------------

// StateHash returns a deterministic digest of the user-visible database
// state as of the given block height: for every table (sorted by name),
// every version visible at that height in primary-key order, hashing row
// data and the creator block stamp. Node-local xids are excluded so all
// honest replicas agree (§3.3.4 checkpointing, security property 5).
func (s *Store) StateHash(height int64) [32]byte {
	h := sha256.New()
	for _, name := range s.TableNames() {
		t, err := s.Table(name)
		if err != nil || t.derived != nil || t.schema.Class == ClassPrivate {
			// Private tables legitimately differ per node (§3.7); a derived
			// table stores nothing (sys_ledger is computed from the chain,
			// and its local_xid column is node-local, §4.2).
			continue
		}
		buf := codec.NewBuf(256)
		buf.String(name)
		h.Write(buf.Bytes())
		t.mu.RLock()
		t.primary.tree.Scan(index.AllRange(), func(_ types.Key, refs []uint64) bool {
			for _, ref := range refs {
				v := t.version(ref)
				if !s.visibleAt(v, 0, height) {
					continue
				}
				b := codec.NewBuf(128)
				b.Row(v.Data)
				b.Varint(v.CreatorBlk)
				h.Write(b.Bytes())
			}
			return true
		})
		t.mu.RUnlock()
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// IndexKeys returns, for the version with the given heap ref, its key in
// every index of the table (by index name). Used to build the SSI
// analysis inputs (predicate rw-dependencies).
func (s *Store) IndexKeys(table string, ref uint64) map[string]types.Key {
	t, err := s.Table(table)
	if err != nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.version(ref)
	if v == nil {
		return nil
	}
	out := make(map[string]types.Key, len(t.indexes))
	for name, ix := range t.indexes {
		out[name] = ix.KeyFor(v.Data)
	}
	return out
}

// Vacuum implements the §7 pruning extension: it permanently removes
// superseded row versions whose deleting transaction committed at or
// below the horizon block, reclaiming memory at the cost of provenance
// older than the horizon. Live versions (no committed deleter) are never
// touched. It returns the number of versions removed.
//
// Vacuum must not run concurrently with block processing of blocks at or
// below the horizon; callers pass a horizon safely below the committed
// height.
func (s *Store) Vacuum(horizon int64) int {
	removed := 0
	for _, name := range s.TableNames() {
		t, err := s.Table(name)
		if err != nil {
			continue
		}
		t.mu.Lock()
		for _, v := range t.heap {
			if v != nil && v.DeleterBlk != NoBlock && v.DeleterBlk <= horizon {
				s.dropVersionLocked(t, v)
				removed++
			}
		}
		t.mu.Unlock()
	}
	return removed
}

// CountVersions returns the total number of stored versions (live and
// superseded) in a table — vacuum accounting.
func (s *Store) CountVersions(table string) (int, error) {
	t, err := s.Table(table)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live, nil
}

// CountVisible returns the number of rows visible at the given height.
func (s *Store) CountVisible(table string, height int64) (int, error) {
	t, err := s.Table(table)
	if err != nil {
		return 0, err
	}
	n := 0
	if t.derived != nil {
		err := t.scanDerived(t.primary.Name, index.AllRange(), height, func(*RowVersion) bool {
			n++
			return true
		})
		return n, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.primary.tree.Scan(index.AllRange(), func(_ types.Key, refs []uint64) bool {
		for _, ref := range refs {
			if s.visibleAt(t.version(ref), 0, height) {
				n++
			}
		}
		return true
	})
	return n, nil
}
