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
	"fmt"
	"sort"
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

// IndexDef is an index attached to a table. On a derived table it is a
// definition only — a name and columns the planner may choose, served by
// the table's provider — and tree is nil.
type IndexDef struct {
	Name   string
	Cols   []int // column ordinals
	Unique bool
	tree   *index.BTree
	// adjacent: Cols are consecutive ordinals (see KeyFor).
	adjacent bool
}

func newIndexDef(name string, cols []int, unique bool) *IndexDef {
	ix := &IndexDef{Name: name, Cols: append([]int(nil), cols...), Unique: unique, tree: index.New(), adjacent: true}
	for i, c := range cols {
		ix.adjacent = ix.adjacent && c == cols[0]+i
	}
	return ix
}

// KeyFor extracts this index's key from a row. When the index columns are
// adjacent in the row (any single-column index) the key is a slice of the
// row itself: row data is immutable once stored, and the B-tree keeps the
// key it is handed, so such an index entry holds no copy of its values.
func (ix *IndexDef) KeyFor(row types.Row) types.Key {
	if c0 := ix.Cols[0]; ix.adjacent {
		return types.Key(row[c0 : c0+len(ix.Cols) : c0+len(ix.Cols)])
	}
	k := make(types.Key, len(ix.Cols))
	for i, c := range ix.Cols {
		k[i] = row[c]
	}
	return k
}

// Table is a versioned heap plus its indexes — or, when derived is set, a
// schema and index definitions over rows a provider computes (derived.go).
type Table struct {
	mu      sync.RWMutex
	schema  Schema
	heap    []*RowVersion // by ref-1; nil where dropped, or where replay met no ref
	live    int           // versions in heap
	nextRef uint64
	primary *IndexDef
	indexes map[string]*IndexDef // by name, includes primary
	derived DerivedScan          // nil for a stored table
}

// version returns the version with the given heap ref, or nil; t.mu held.
func (t *Table) version(ref uint64) *RowVersion {
	if i := ref - 1; i < uint64(len(t.heap)) { // ref 0 wraps past the end
		return t.heap[i]
	}
	return nil
}

// put stores v in the empty heap slot of its ref; t.mu held.
func (t *Table) put(v *RowVersion) {
	for uint64(len(t.heap)) < v.ID {
		t.heap = append(t.heap, nil)
	}
	t.heap[v.ID-1] = v
	t.live++
}

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Derived reports whether the table's rows are computed by a provider
// instead of stored (see Store.RegisterDerived): it can be read through
// ScanIndex like any other table and never written.
func (t *Table) Derived() bool { return t.derived != nil }

// PrimaryIndexName returns the name of the primary-key index.
func (t *Table) PrimaryIndexName() string { return t.primary.Name }

// Indexes returns the names of all indexes in sorted order.
func (t *Table) Indexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IndexCols returns the column ordinals of the named index.
func (t *Table) IndexCols(name string) ([]int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[name]
	if !ok {
		return nil, false
	}
	return append([]int(nil), ix.Cols...), true
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

// --- transaction status ------------------------------------------------------

type txStatusKind uint8

const (
	txInProgress txStatusKind = iota
	txCommitted
	txAborted
)

type txState struct {
	kind  txStatusKind
	block int64
}

// txShardCount stripes the transaction-status table. Status reads sit on
// the visibility hot path — every version inspected by every scan costs
// one — so a single RWMutex there serializes all concurrent executions
// and the sealer. Ids are sequential, so id mod txShardCount spreads
// consecutive transactions evenly.
const txShardCount = 64

// txShard is one stripe of the status table, padded so neighboring
// shards don't share a cache line.
type txShard struct {
	mu sync.RWMutex
	m  map[TxID]txState
	_  [32]byte
}

// Store is one node's database: catalog, heaps, indexes and the
// transaction status table (the CLOG equivalent).
//
// The catalog is copy-on-write: readers resolve tables through one
// atomic pointer load with no lock at all, and DDL (rare, never inside
// block processing) publishes a fresh map under catMu. Row data is still
// guarded per table by Table.mu, so concurrent executions touching
// different tables never contend on a store-wide lock.
type Store struct {
	catMu  sync.Mutex                        // serializes DDL (copy-on-write swaps)
	tables atomic.Pointer[map[string]*Table] // immutable snapshot; lock-free reads

	txShards [txShardCount]txShard

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
	for i := range s.txShards {
		s.txShards[i].m = make(map[TxID]txState)
	}
	return s
}

// catalog returns the current table map snapshot. The map is immutable —
// DDL swaps in a copy — so callers may read it without locking.
func (s *Store) catalog() map[string]*Table { return *s.tables.Load() }

// shardFor returns the status stripe owning a transaction id.
func (s *Store) shardFor(id TxID) *txShard {
	return &s.txShards[uint64(id)%txShardCount]
}

// Height returns the last committed block number.
func (s *Store) Height() int64 { return s.height.Load() }

// SchemaEpoch returns the catalog generation counter; it increases on
// every DDL change. Plans (and any other schema-derived caches) are valid
// only for the epoch they were built under.
func (s *Store) SchemaEpoch() uint64 { return s.epoch.Load() }

// SetHeight records that all blocks up to h are committed.
func (s *Store) SetHeight(h int64) { s.height.Store(h) }

// BeginTx allocates a fresh node-local transaction id.
func (s *Store) BeginTx() TxID {
	id := TxID(s.nextTx.Add(1))
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.m[id] = txState{kind: txInProgress}
	sh.mu.Unlock()
	return id
}

func (s *Store) txStatus(id TxID) txState {
	if id == 0 {
		return txState{kind: txAborted}
	}
	sh := s.shardFor(id)
	sh.mu.RLock()
	st := sh.m[id]
	sh.mu.RUnlock()
	return st
}

// forceCommitted marks a transaction committed at the given block without
// going through CommitTx. WAL replay uses it for the synthetic per-block
// transactions standing in for the original (non-durable) ids.
func (s *Store) forceCommitted(id TxID, block int64) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.m[id] = txState{kind: txCommitted, block: block}
	sh.mu.Unlock()
}

// IsCommitted reports whether the transaction has committed, and in which
// block.
func (s *Store) IsCommitted(id TxID) (bool, int64) {
	st := s.txStatus(id)
	return st.kind == txCommitted, st.block
}

// --- DDL ----------------------------------------------------------------------

// CreateTable creates a table with a primary-key index named
// "<table>_pkey".
func (s *Store) CreateTable(schema Schema) error {
	if len(schema.PKCols) == 0 {
		return fmt.Errorf("storage: table %s needs a primary key", schema.Name)
	}
	for _, c := range schema.PKCols {
		if c < 0 || c >= len(schema.Columns) {
			return fmt.Errorf("storage: table %s: bad pk ordinal %d", schema.Name, c)
		}
		schema.Columns[c].NotNull = true
	}
	pk := newIndexDef(schema.Name+"_pkey", schema.PKCols, true)
	return s.addTable(&Table{
		schema:  schema,
		primary: pk,
		indexes: map[string]*IndexDef{pk.Name: pk},
	})
}

// addTable publishes a new table in the catalog.
func (s *Store) addTable(t *Table) error {
	s.catMu.Lock()
	defer s.catMu.Unlock()
	old := s.catalog()
	if _, ok := old[t.schema.Name]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, t.schema.Name)
	}
	next := make(map[string]*Table, len(old)+1)
	for n, tb := range old {
		next[n] = tb
	}
	next[t.schema.Name] = t
	s.tables.Store(&next)
	s.epoch.Add(1)
	return nil
}

// DropTable removes a table and its indexes.
func (s *Store) DropTable(name string) error {
	s.catMu.Lock()
	defer s.catMu.Unlock()
	old := s.catalog()
	if t, ok := old[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	} else if t.derived != nil {
		return fmt.Errorf("%w: %s", ErrDerivedTable, name)
	}
	next := make(map[string]*Table, len(old))
	for n, tb := range old {
		if n != name {
			next[n] = tb
		}
	}
	s.tables.Store(&next)
	s.epoch.Add(1)
	return nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	t, ok := s.catalog()[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (s *Store) HasTable(name string) bool {
	_, ok := s.catalog()[name]
	return ok
}

// TableNames returns all table names sorted.
func (s *Store) TableNames() []string {
	cat := s.catalog()
	out := make([]string, 0, len(cat))
	for n := range cat {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateIndex adds a secondary index over the named columns and backfills
// it from the heap; a unique one over colliding versions is refused.
func (s *Store) CreateIndex(table, name string, cols []int, unique bool) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	if t.derived != nil {
		return fmt.Errorf("%w: %s", ErrDerivedTable, table)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[name]; ok {
		return fmt.Errorf("%w: %s", ErrIndexExists, name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("storage: index %s on %s names no column", name, table)
	}
	ix := newIndexDef(name, cols, unique)
	for _, v := range t.heap {
		if v != nil {
			ix.tree.Insert(ix.KeyFor(v.Data), v.ID)
		}
	}
	if unique {
		if key := s.firstCollision(t, ix); key != nil {
			return fmt.Errorf("%w: %s on %s key %s", ErrUniqueViolation, name, table, key)
		}
	}
	t.indexes[name] = ix
	s.epoch.Add(1)
	return nil
}

// firstCollision returns a key under which ix holds two committed versions
// visible at one height, or nil. Two versions' visible heights overlap iff
// both are visible where the later was created, so each creation height is
// tried: quadratic in a key's versions, for DDL only. Provisional versions
// meet the index at their commit turn.
func (s *Store) firstCollision(t *Table, ix *IndexDef) (key types.Key) {
	ix.tree.Scan(index.AllRange(), func(k types.Key, refs []uint64) bool {
		for _, ref := range refs {
			created, at := s.creation(t.version(ref))
			n := 0
			for _, other := range refs {
				if created && s.visibleAt(t.version(other), 0, at) {
					n++
				}
			}
			if n > 1 {
				key = k
				return false
			}
		}
		return true
	})
	return key
}

// --- visibility ----------------------------------------------------------------

// Visibility is answered from the block stamps on the version wherever
// they are set, and from the transaction status table only for versions
// that are still provisional. CommitTx writes CreatorBlk/DeleterBlk (and
// Xmax) under the same table latch every reader of the version holds, and
// marks the transaction committed right after releasing it, so the two
// sources differ only inside that window: the stamp says "committed in
// block b", the status table still says "in progress". For a block's
// transactions that window is invisible, because b is above every
// reader's snapshot — SetHeight(b) happens after the block's last
// CommitTx returned, and no snapshot height exceeds the store height —
// so both sources answer "not yet visible" (or, for a deleter, "still
// live"). The only commits at or below the current height are the ones
// that are unordered with respect to readers by design — private-schema
// transactions (node-local) — and for those a concurrent reader now sees
// the commit from the stamp instead of from the status flip a few
// instructions later, two equally arbitrary points.
// What the stamps save is a striped RWMutex round trip and a map read per
// version inspected, twice for superseded versions, on every scan.
//
// The commit turn's Validate answers "committed, and in which block" from
// the same stamps (creation, deletion), and there the two sources never
// differ at all: CommitTx, replayInsert and replayDelete set a stamp
// before, or together with, the status; the turn is serial per node, so
// every commit Validate can see has already returned; and a provisional
// version has no stamp, so it falls back to the status table and reads
// "in progress", as before.

// createdBy reports whether v's creator committed at or below height.
func (s *Store) createdBy(v *RowVersion, height int64) bool {
	created, blk := s.creation(v)
	return created && blk <= height
}

// creation reports whether v's creator has committed, and in which block.
func (s *Store) creation(v *RowVersion) (bool, int64) {
	if v.CreatorBlk != NoBlock {
		return true, v.CreatorBlk
	}
	cst := s.txStatus(v.Xmin)
	return cst.kind == txCommitted, cst.block
}

// deletion reports whether v's deleter has committed, and in which block.
func (s *Store) deletion(v *RowVersion) (bool, int64) {
	if v.DeleterBlk != NoBlock {
		return true, v.DeleterBlk
	}
	if v.Xmax == 0 {
		return false, 0
	}
	dst := s.txStatus(v.Xmax)
	return dst.kind == txCommitted, dst.block
}

// visibleAt reports whether version v is visible to a transaction with
// the given snapshot height and own id. Caller holds the table lock
// (read or write).
func (s *Store) visibleAt(v *RowVersion, self TxID, height int64) bool {
	// Own writes: visible unless deleted by self.
	if v.Xmin == self {
		return v.Xmax != self
	}
	// Created by another tx: must be committed at or below the snapshot.
	if !s.createdBy(v, height) {
		return false
	}
	if v.Xmax == 0 {
		return true
	}
	// Deleted by self: invisible.
	if v.Xmax == self {
		return false
	}
	// Deleted by a committed tx at or below the snapshot: invisible.
	if v.DeleterBlk != NoBlock {
		return v.DeleterBlk > height
	}
	dst := s.txStatus(v.Xmax)
	return dst.kind != txCommitted || dst.block > height
}

// --- reads ----------------------------------------------------------------------

// ScanMode selects which versions a scan yields.
type ScanMode uint8

// Scan modes.
const (
	ScanVisible    ScanMode = iota // SI visibility at the snapshot height
	ScanProvenance                 // all committed versions ≤ height, live or dead
)

// ScanIndex iterates versions reachable through the named index within
// rng, in index-key order, invoking fn with each version; returning false
// stops the scan. Versions of one key come in ascending heap ref, except on
// a unique index in ScanVisible mode: a key is walked newest first, and its
// first visible version is the only one unless it is self's own (committed
// versions of a key are visible at disjoint heights — Insert, Validate,
// CreateIndex — and self's are newer than those its snapshot sees); before
// self's own, versions it superseded may be visible, so that key is walked
// ascending. The yield is the full walk's for the views the engine takes:
// self 0 at any height, a transaction at its snapshot. fn runs under the
// table's read latch: it must not call into the store (a nested scan can
// deadlock against a committer locking tables in name order), and of v it
// may keep only ID and Data, which never change — the other fields are
// guarded by the latch and must be read inside fn.
func (s *Store) ScanIndex(table, ixName string, rng index.Range, self TxID, height int64, mode ScanMode, fn func(v *RowVersion) bool) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	if t.derived != nil {
		return t.scanDerived(ixName, rng, height, fn)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[ixName]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, table, ixName)
	}
	newestFirst := ix.Unique && mode == ScanVisible
	ix.tree.Scan(rng, func(_ types.Key, refs []uint64) bool {
		for i := len(refs) - 1; newestFirst && i >= 0; i-- {
			if v := t.version(refs[i]); s.visibleAt(v, self, height) {
				if v.Xmin != self {
					return fn(v)
				}
				break // self's own version: walk the key ascending, below
			}
			if i == 0 {
				return true // no version visible
			}
		}
		for _, ref := range refs {
			v := t.version(ref)
			var vis bool
			if mode == ScanProvenance {
				vis = s.createdBy(v, height) // live or superseded
			} else {
				vis = s.visibleAt(v, self, height)
			}
			if vis && !fn(v) {
				return false
			}
		}
		return true
	})
	return nil
}

// --- writes ---------------------------------------------------------------------

// Insert creates a provisional version owned by rec's transaction. NOT
// NULL and arity are checked immediately; uniqueness against the visible
// snapshot is checked immediately (PostgreSQL-style), while conflicts
// with concurrent transactions are resolved at commit turn.
//
// Insert takes ownership of row: the caller must not reuse or mutate the
// slice afterwards (row data is immutable once stored).
func (s *Store) Insert(rec *TxRecord, table string, row types.Row) (*RowVersion, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	if t.derived != nil {
		return nil, fmt.Errorf("%w: %s", ErrDerivedTable, table)
	}
	if len(row) != len(t.schema.Columns) {
		return nil, fmt.Errorf("%w: table %s has %d columns, got %d",
			ErrArity, table, len(t.schema.Columns), len(row))
	}
	for i, c := range t.schema.Columns {
		if c.NotNull && row[i].IsNull() {
			return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, table, c.Name)
		}
		if !row[i].IsNull() && row[i].Kind() != c.Type {
			cv, err := types.CoerceToKind(row[i], c.Type)
			if err != nil {
				return nil, fmt.Errorf("storage: %s.%s: %v", table, c.Name, err)
			}
			row[i] = cv
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()

	// Immediate unique checks against the visible snapshot. Versions this
	// transaction already superseded (the delete half of an UPDATE) do not
	// conflict.
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		key := ix.KeyFor(row)
		for _, ref := range ix.tree.Get(key) {
			if rec.Supersedes(table, ref) {
				continue
			}
			if s.visibleAt(t.version(ref), rec.ID, rec.SnapshotHeight) {
				return nil, fmt.Errorf("%w: %s on %s key %s",
					ErrUniqueViolation, ix.Name, table, key)
			}
		}
	}

	t.nextRef++
	v := &RowVersion{
		ID:         t.nextRef,
		Data:       row,
		Xmin:       rec.ID,
		CreatorBlk: NoBlock,
		DeleterBlk: NoBlock,
	}
	t.put(v)
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.KeyFor(v.Data), v.ID)
	}
	rec.Inserted = append(rec.Inserted, ItemRef{table, v.ID})
	return v, nil
}

// MarkDelete registers that rec's transaction supersedes version ref
// (the delete half of UPDATE, or a plain DELETE). The version stays
// visible to others until commit.
func (s *Store) MarkDelete(rec *TxRecord, table string, ref uint64) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	if t.derived != nil {
		return fmt.Errorf("%w: %s", ErrDerivedTable, table)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version(ref)
	if v == nil {
		return fmt.Errorf("storage: %s: no version %d", table, ref)
	}
	if v.Xmin == rec.ID {
		// Deleting our own provisional insert: mark it so it is
		// invisible to ourselves and skipped at commit.
		v.Xmax = rec.ID
		return nil
	}
	rec.DeletedOld = append(rec.DeletedOld, ItemRef{table, ref})
	return nil
}

// --- commit / abort --------------------------------------------------------------

// lockTables resolves the distinct tables referenced by the given item
// refs and write-locks each exactly once, in sorted name order (a stable
// total order, so concurrent multi-table lockers cannot deadlock).
// Unknown tables are simply absent from the returned map. The caller runs
// unlock when done.
func (s *Store) lockTables(refs ...[]ItemRef) (tabs map[string]*Table, unlock func()) {
	tabs = make(map[string]*Table, 2)
	var names []string
	for _, rs := range refs {
		for _, ir := range rs {
			if _, seen := tabs[ir.Table]; seen {
				continue
			}
			t, err := s.Table(ir.Table)
			if err != nil {
				tabs[ir.Table] = nil
				continue
			}
			tabs[ir.Table] = t
			names = append(names, ir.Table)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		tabs[n].mu.Lock()
	}
	return tabs, func() {
		for i := len(names) - 1; i >= 0; i-- {
			tabs[names[i]].mu.Unlock()
		}
	}
}

// CommitTx stamps rec's writes with the given block number, marks the
// transaction committed, and fills rec.Capture with the applied effects
// (see WriteCapture). The block processor serializes the CommitTx calls
// of a block in block order, so block stamps are deterministic.
//
// Index maintenance is batched: every table a transaction touched is
// locked once and all of its row updates applied in that one critical
// section, instead of a lock round-trip per row.
func (s *Store) CommitTx(rec *TxRecord, block int64) {
	// Reuse the capture a pooled record brought along (see arena.go);
	// fresh records allocate one here.
	cap := rec.Capture
	if cap == nil {
		cap = &WriteCapture{}
	}
	cap.Inserted = cap.Inserted[:0]
	cap.Deleted = cap.Deleted[:0]
	if rec.HasWrites() {
		tabs, unlock := s.lockTables(rec.Inserted, rec.DeletedOld)
		for _, ir := range rec.Inserted {
			t := tabs[ir.Table]
			if t == nil {
				continue
			}
			if v := t.version(ir.Ref); v != nil {
				if v.Xmax == rec.ID {
					// Inserted and deleted within the same transaction:
					// never becomes visible; drop it.
					s.dropVersionLocked(t, v)
				} else {
					v.CreatorBlk = block
					cap.Inserted = append(cap.Inserted, CapturedRow{ir.Table, ir.Ref, v.Data})
				}
			}
		}
		for _, ir := range rec.DeletedOld {
			t := tabs[ir.Table]
			if t == nil {
				continue
			}
			if v := t.version(ir.Ref); v != nil {
				v.Xmax = rec.ID
				v.DeleterBlk = block
				cap.Deleted = append(cap.Deleted, CapturedRow{ir.Table, ir.Ref, types.Row(t.schema.PKKey(v.Data))})
			}
		}
		unlock()
	}
	rec.Capture = cap
	s.forceCommitted(rec.ID, block)
}

// AbortTx discards rec's provisional versions and marks the transaction
// aborted. Like CommitTx, each touched table is locked once.
func (s *Store) AbortTx(rec *TxRecord) {
	if len(rec.Inserted) > 0 {
		tabs, unlock := s.lockTables(rec.Inserted)
		for _, ir := range rec.Inserted {
			t := tabs[ir.Table]
			if t == nil {
				continue
			}
			if v := t.version(ir.Ref); v != nil {
				s.dropVersionLocked(t, v)
			}
		}
		unlock()
	}
	sh := s.shardFor(rec.ID)
	sh.mu.Lock()
	sh.m[rec.ID] = txState{kind: txAborted}
	sh.mu.Unlock()
}

// dropVersionLocked removes v from heap and indexes. Caller holds t.mu.
func (s *Store) dropVersionLocked(t *Table, v *RowVersion) {
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.KeyFor(v.Data), v.ID)
	}
	t.heap[v.ID-1] = nil
	t.live--
}

// --- commit-turn validation -------------------------------------------------------

// ValidationError describes why a transaction failed commit-turn
// validation.
type ValidationError struct {
	Kind   string // "stale-read", "phantom", "ww-conflict", "unique"
	Table  string
	Detail string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("storage: %s on %s: %s", e.Kind, e.Table, e.Detail)
}

// Validate re-checks rec at its commit turn inside block `current`:
//
//   - stale reads: a version rec read was superseded by a block in
//     (snapshot, current) — §3.4.1 rule 2;
//   - phantoms: a version matching one of rec's scanned ranges was created
//     by a block in (snapshot, current) and is still live — §3.4.1 rule 1;
//   - ww conflicts: a version rec supersedes was already superseded by a
//     committed transaction (first-committer-wins, incl. earlier txs of the
//     current block) — §3.3.3;
//   - uniqueness: rec's inserts collide with committed versions visible at
//     the current block (covers concurrent inserts committed earlier in
//     this block or in blocks above the snapshot).
//
// It returns nil when the transaction may commit.
func (s *Store) Validate(rec *TxRecord, current int64) error {
	// ww conflicts.
	for _, ir := range rec.DeletedOld {
		t, err := s.Table(ir.Table)
		if err != nil {
			continue
		}
		t.mu.RLock()
		v := t.version(ir.Ref)
		var bad bool
		if v != nil && v.Xmax != rec.ID {
			bad, _ = s.deletion(v)
		}
		t.mu.RUnlock()
		if bad {
			return &ValidationError{Kind: "ww-conflict", Table: ir.Table,
				Detail: fmt.Sprintf("version %d already superseded", ir.Ref)}
		}
	}

	// Stale reads: deleter committed in (snapshot, current).
	for ir := range rec.ReadRows {
		t, err := s.Table(ir.Table)
		if err != nil {
			continue
		}
		t.mu.RLock()
		v := t.version(ir.Ref)
		var bad bool
		if v != nil && v.Xmax != rec.ID {
			deleted, blk := s.deletion(v)
			bad = deleted && blk > rec.SnapshotHeight && blk < current
		}
		t.mu.RUnlock()
		if bad {
			return &ValidationError{Kind: "stale-read", Table: ir.Table,
				Detail: fmt.Sprintf("version %d superseded after snapshot %d", ir.Ref, rec.SnapshotHeight)}
		}
	}

	// Phantoms: creator committed in (snapshot, current), still live.
	for _, rr := range rec.ReadRanges {
		t, err := s.Table(rr.Table)
		if err != nil {
			continue
		}
		t.mu.RLock()
		ix, ok := t.indexes[rr.Index]
		var bad bool
		if ok {
			ix.tree.Scan(rr.Range, func(_ types.Key, refs []uint64) bool {
				for _, ref := range refs {
					v := t.version(ref)
					if v.Xmin == rec.ID {
						continue
					}
					if created, blk := s.creation(v); !created || blk <= rec.SnapshotHeight || blk >= current {
						continue
					}
					// Created after our snapshot, before this block.
					// Paper rule 1: abort provided the deleter is empty.
					if deleted, blk := s.deletion(v); deleted && blk < current {
						continue // deleted again before this block
					}
					bad = true
					return false
				}
				return true
			})
		}
		t.mu.RUnlock()
		if bad {
			return &ValidationError{Kind: "phantom", Table: rr.Table,
				Detail: fmt.Sprintf("new row in scanned range of %s", rr.Index)}
		}
	}

	// Uniqueness against committed state as of `current`. Versions this
	// transaction itself supersedes are about to die and do not conflict.
	for _, ir := range rec.Inserted {
		t, err := s.Table(ir.Table)
		if err != nil {
			continue
		}
		t.mu.RLock()
		mine := t.version(ir.Ref)
		var bad string
		if mine != nil && mine.Xmax != rec.ID {
			for _, ix := range t.indexes {
				if !ix.Unique {
					continue
				}
				key := ix.KeyFor(mine.Data)
				for _, ref := range ix.tree.Get(key) {
					if ref == ir.Ref || rec.Supersedes(ir.Table, ref) {
						continue
					}
					v := t.version(ref)
					// Committed and not superseded by a committed delete.
					if created, _ := s.creation(v); !created {
						continue
					}
					if deleted, _ := s.deletion(v); !deleted {
						bad = fmt.Sprintf("%s key %s", ix.Name, key)
					}
				}
			}
		}
		t.mu.RUnlock()
		if bad != "" {
			return &ValidationError{Kind: "unique", Table: ir.Table, Detail: bad}
		}
	}
	return nil
}

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
			if v == nil || v.Xmax == 0 {
				continue
			}
			if st := s.txStatus(v.Xmax); st.kind == txCommitted && st.block <= horizon {
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
