// Package index implements the in-memory B+tree that backs every table
// index in the engine. The paper (§4.3) requires all predicate reads in
// the execute-order-in-parallel flow to be served by an index; beyond
// performance, key-ordered iteration is what makes scans — and therefore
// float aggregation — deterministic across replicas.
//
// The tree maps a composite key (types.Key) to an ordered list of opaque
// uint64 references (row-version ids). Non-unique indexes store several
// refs per key; the per-key list is kept sorted so iteration order never
// depends on insertion interleaving.
//
// Concurrency: the tree itself is not synchronized; the storage layer
// guards each index with the table latch.
package index

import (
	"sort"

	"bcrdb/internal/types"
)

const (
	// degree is the maximum number of keys per node. Chosen small enough
	// to keep splits cheap in tests and large enough for shallow trees.
	degree = 32
)

// BTree is an ordered multimap from types.Key to sets of uint64 refs.
type BTree struct {
	root *node
}

type item struct {
	key  types.Key
	refs []uint64 // sorted ascending
}

type node struct {
	items    []item  // len <= degree
	children []*node // nil for leaves; else len == len(items)+1
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// New returns an empty tree.
func New() *BTree { return &BTree{root: &node{}} }

// search returns the index of the first item in n with key >= k, and
// whether an exact match was found there.
func searchNode(n *node, k types.Key) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool {
		return types.CompareKeys(n.items[i].key, k) >= 0
	})
	if i < len(n.items) && types.CompareKeys(n.items[i].key, k) == 0 {
		return i, true
	}
	return i, false
}

// Insert adds ref under key. It reports whether the (key, ref) pair was
// newly added (false if the exact pair was already present). The tree
// keeps key when it is new: the caller must not modify it afterwards
// (storage hands in a slice of the immutable row, so an index entry costs
// no key copy).
func (t *BTree) Insert(key types.Key, ref uint64) bool {
	if len(t.root.items) >= degree {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	return t.insertNonFull(t.root, key, ref)
}

func (t *BTree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.items) / 2
	midItem := child.items[mid]

	right := &node{}
	right.items = append(right.items, child.items[mid+1:]...)
	// Reallocate the left half at its own size: under ascending keys
	// (primary keys, block numbers, xids) it never receives another insert,
	// and a full node's capacity would stay pinned behind its 16 items.
	child.items = append([]item(nil), child.items[:mid]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}

	parent.items = append(parent.items, item{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = midItem

	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *BTree) insertNonFull(n *node, key types.Key, ref uint64) bool {
	for {
		i, found := searchNode(n, key)
		if found {
			return insertRef(&n.items[i], ref)
		}
		if n.leaf() {
			n.items = append(n.items, item{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item{key: key, refs: []uint64{ref}}
			return true
		}
		child := n.children[i]
		if len(child.items) >= degree {
			t.splitChild(n, i)
			c := types.CompareKeys(key, n.items[i].key)
			switch {
			case c == 0:
				return insertRef(&n.items[i], ref)
			case c > 0:
				child = n.children[i+1]
			default:
				child = n.children[i]
			}
		}
		n = child
	}
}

func insertRef(it *item, ref uint64) bool {
	i := sort.Search(len(it.refs), func(i int) bool { return it.refs[i] >= ref })
	if i < len(it.refs) && it.refs[i] == ref {
		return false
	}
	it.refs = append(it.refs, 0)
	copy(it.refs[i+1:], it.refs[i:])
	it.refs[i] = ref
	return true
}

// Delete removes the (key, ref) pair. It reports whether the pair was
// present. Empty keys are removed; structural rebalancing is deliberately
// lazy (nodes may become underfull) which is safe for an in-memory tree
// whose lifetime matches the table's, and keeps deletion simple. Keys are
// removed from leaves by tombstoning the ref list; an item with no refs
// is skipped by lookups and iterators and compacted when its node splits.
func (t *BTree) Delete(key types.Key, ref uint64) bool {
	it := t.findItem(t.root, key)
	if it == nil {
		return false
	}
	i := sort.Search(len(it.refs), func(i int) bool { return it.refs[i] >= ref })
	if i >= len(it.refs) || it.refs[i] != ref {
		return false
	}
	it.refs = append(it.refs[:i], it.refs[i+1:]...)
	return true
}

func (t *BTree) findItem(n *node, key types.Key) *item {
	for n != nil {
		i, found := searchNode(n, key)
		if found {
			return &n.items[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
	return nil
}

// Get returns the refs stored under key in ascending order. The returned
// slice must not be modified.
func (t *BTree) Get(key types.Key) []uint64 {
	it := t.findItem(t.root, key)
	if it == nil || len(it.refs) == 0 {
		return nil
	}
	return it.refs
}

// Range describes a key interval for scans. Nil Lo/Hi mean unbounded.
// A Range with Lo == Hi (equal keys) and both inclusive is a point lookup.
type Range struct {
	Lo, Hi     types.Key
	LoInc      bool
	HiInc      bool
	Unbounded  bool // whole-index scan (used by order-then-execute fallback)
	PrefixOnly bool // Lo is a key prefix; match all keys starting with it
}

// cmpPrefix compares key k against a bound on the bound's length prefix:
// composite-index semantics, where a bound (a, b) matches every key
// (a, b, *). Equal-length keys compare exactly.
func cmpPrefix(k, bound types.Key) int {
	n := len(bound)
	if len(k) < n {
		n = len(k)
	}
	return types.CompareKeys(k[:n], bound[:n])
}

// Contains reports whether key k falls inside the range. Bounds shorter
// than the key use prefix semantics: Lo = (5) inclusive admits (5, anything).
func (r Range) Contains(k types.Key) bool {
	if r.Unbounded {
		return true
	}
	if r.PrefixOnly {
		if len(k) < len(r.Lo) {
			return false
		}
		return types.CompareKeys(k[:len(r.Lo)], r.Lo) == 0
	}
	if r.Lo != nil {
		c := cmpPrefix(k, r.Lo)
		if c < 0 || (c == 0 && !r.LoInc) {
			return false
		}
	}
	if r.Hi != nil {
		c := cmpPrefix(k, r.Hi)
		if c > 0 || (c == 0 && !r.HiInc) {
			return false
		}
	}
	return true
}

// Scan calls fn for every (key, refs) pair inside r, in ascending key
// order, until fn returns false. refs is ascending and must not be
// retained.
func (t *BTree) Scan(r Range, fn func(key types.Key, refs []uint64) bool) {
	t.scanNode(t.root, r, fn)
}

func (t *BTree) scanNode(n *node, r Range, fn func(types.Key, []uint64) bool) bool {
	if n == nil {
		return true
	}
	start := 0
	if !r.Unbounded && r.Lo != nil && !r.PrefixOnly {
		start = sort.Search(len(n.items), func(i int) bool {
			c := cmpPrefix(n.items[i].key, r.Lo)
			if r.LoInc {
				return c >= 0
			}
			return c > 0
		})
	} else if r.PrefixOnly {
		start = sort.Search(len(n.items), func(i int) bool {
			k := n.items[i].key
			m := len(r.Lo)
			if len(k) < m {
				m = len(k)
			}
			return types.CompareKeys(k[:m], r.Lo[:m]) >= 0
		})
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			if !t.scanNode(n.children[i], r, fn) {
				return false
			}
		}
		if i == len(n.items) {
			break
		}
		it := &n.items[i]
		past, in := r.pastEnd(it.key)
		if past {
			return false
		}
		if in && len(it.refs) > 0 {
			if !fn(it.key, it.refs) {
				return false
			}
		}
	}
	return true
}

// pastEnd reports (whether k is beyond the range end, whether k is inside
// the range).
func (r Range) pastEnd(k types.Key) (past, in bool) {
	if r.Unbounded {
		return false, true
	}
	if r.PrefixOnly {
		if len(k) >= len(r.Lo) {
			c := types.CompareKeys(k[:len(r.Lo)], r.Lo)
			if c > 0 {
				return true, false
			}
			return false, c == 0
		}
		return types.CompareKeys(k, r.Lo) > 0, false
	}
	if r.Hi != nil {
		c := cmpPrefix(k, r.Hi)
		if c > 0 || (c == 0 && !r.HiInc) {
			return true, false
		}
	}
	return false, r.Contains(k)
}

// PointRange returns the Range matching exactly key.
func PointRange(key types.Key) Range {
	return Range{Lo: key, Hi: key, LoInc: true, HiInc: true}
}

// PrefixRange returns the Range matching all keys with the given prefix.
func PrefixRange(prefix types.Key) Range {
	return Range{Lo: prefix, PrefixOnly: true}
}

// AllRange returns the unbounded Range.
func AllRange() Range { return Range{Unbounded: true} }
