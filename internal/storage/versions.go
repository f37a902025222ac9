package storage

import (
	"fmt"
	"sort"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// --- visibility ----------------------------------------------------------------

// Visibility reads the block stamps alone. CommitTx writes CreatorBlk and
// DeleterBlk under the table latch every reader of the version holds, so
// a version with no stamp is provisional and only its creator sees it. An
// aborted transaction's versions never carry a stamp and are removed; an
// abort never removes a stamped version (see AbortTx).

// createdBy reports whether v's creator committed at or below height.
func (s *Store) createdBy(v *RowVersion, height int64) bool {
	created, blk := s.creation(v)
	return created && blk <= height
}

// creation reports whether v's creator has committed, and in which block.
func (s *Store) creation(v *RowVersion) (bool, int64) {
	return v.CreatorBlk != NoBlock, v.CreatorBlk
}

// deletion reports whether v's deleter has committed, and in which block.
func (s *Store) deletion(v *RowVersion) (bool, int64) {
	return v.DeleterBlk != NoBlock, v.DeleterBlk
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
	return v.DeleterBlk == NoBlock || v.DeleterBlk > height
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

// CommitTx stamps rec's writes with the given block number and fills
// rec.Capture with the applied effects (see WriteCapture). The block
// processor serializes the CommitTx calls of a block in block order, so
// block stamps are deterministic.
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
}

// AbortTx discards rec's provisional versions. Versions that carry a
// creator stamp are kept: a malicious block can carry one transaction
// twice, both entries share one record, and aborting the second must not
// roll back what the first committed. Like CommitTx, each touched table
// is locked once.
func (s *Store) AbortTx(rec *TxRecord) {
	if len(rec.Inserted) == 0 {
		return
	}
	tabs, unlock := s.lockTables(rec.Inserted)
	for _, ir := range rec.Inserted {
		t := tabs[ir.Table]
		if t == nil {
			continue
		}
		v := t.version(ir.Ref)
		if v == nil || v.CreatorBlk != NoBlock {
			continue // already dropped, or committed
		}
		s.dropVersionLocked(t, v)
	}
	unlock()
}

// dropVersionLocked removes v from heap and indexes. Caller holds t.mu.
func (s *Store) dropVersionLocked(t *Table, v *RowVersion) {
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.KeyFor(v.Data), v.ID)
	}
	t.heap[v.ID-1] = nil
	t.live--
}
