package storage

import (
	"fmt"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// scanFullWalk is ScanIndex in ScanVisible mode as it was before unique
// indexes were walked newest first: every ref of every key inside rng,
// ascending, each tested for visibility. It is the oracle
// TestUniqueScanMatchesFullWalk and FuzzUniqueScan hold ScanIndex to.
func (s *Store) scanFullWalk(table, ixName string, rng index.Range, self TxID, height int64, fn func(v *RowVersion) bool) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[ixName]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, table, ixName)
	}
	ix.tree.Scan(rng, func(_ types.Key, refs []uint64) bool {
		for _, ref := range refs {
			if v := t.version(ref); v != nil && s.visibleAt(v, self, height) && !fn(v) {
				return false
			}
		}
		return true
	})
	return nil
}

// getVersion returns the version with the given heap ref, or nil.
func getVersion(s *Store, table string, ref uint64) *RowVersion {
	t, err := s.Table(table)
	if err != nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version(ref)
}
