package storage

import (
	"fmt"

	"bcrdb/internal/types"
)

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
