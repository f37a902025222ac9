package storage

import (
	"fmt"
	"sort"
	"sync"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

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
