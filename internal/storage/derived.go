package storage

import (
	"fmt"

	"bcrdb/internal/index"
)

// A derived table is a table whose rows are computed on demand by a
// provider instead of being stored: the catalog holds its schema and the
// definitions of the indexes the provider serves (so the planner chooses
// among them exactly as for a stored table), and ScanIndex hands every
// read to the provider. It has no heap and no index trees, and so it is
// never written, WAL-logged, hashed or vacuumed; every write path refuses
// it with ErrDerivedTable. The registration lives in memory only — the
// owner registers the table each time it opens the store, also over a
// disk backend, which inherits all of this through the embedded *Store.

// DerivedIndex names one access path a derived table's provider serves.
type DerivedIndex struct {
	Name string
	Cols []int // column ordinals
}

// DerivedScan yields the rows of a derived table that exist as of block
// height and whose key in the named index lies in rng, in any order (the
// engine sorts what a scan yields into emission order). Of a yielded
// version, ID must be unique within the table and stable, Data is the row,
// CreatorBlk the block it exists from and DeleterBlk NoBlock: derived rows
// are never superseded, so a provenance scan sees what a visible scan
// sees. fn returning false stops the scan. The provider is called with no
// store lock held and must be safe for concurrent use.
type DerivedScan func(ixName string, rng index.Range, height int64, fn func(v *RowVersion) bool) error

// RegisterDerived adds a derived table to the catalog: its schema, a
// primary-key index definition named "<table>_pkey" plus the given ones,
// and the provider serving them. It fails with ErrTableExists when a
// table of that name — stored or derived — is already there.
func (s *Store) RegisterDerived(schema Schema, indexes []DerivedIndex, scan DerivedScan) error {
	if len(schema.PKCols) == 0 || scan == nil {
		return fmt.Errorf("storage: derived table %s needs a primary key and a provider", schema.Name)
	}
	pk := &IndexDef{Name: schema.Name + "_pkey", Cols: schema.PKCols, Unique: true}
	t := &Table{schema: schema, primary: pk, indexes: map[string]*IndexDef{pk.Name: pk}, derived: scan}
	for _, ix := range indexes {
		t.indexes[ix.Name] = &IndexDef{Name: ix.Name, Cols: ix.Cols}
	}
	return s.addTable(t)
}

// scanDerived is ScanIndex for a derived table.
func (t *Table) scanDerived(ixName string, rng index.Range, height int64, fn func(v *RowVersion) bool) error {
	if _, ok := t.indexes[ixName]; !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, t.schema.Name, ixName)
	}
	return t.derived(ixName, rng, height, fn)
}
