package ssi

import (
	"fmt"
	"sort"

	"bcrdb/internal/storage"
)

// CommittedTx describes one committed transaction for the history
// serializability checker. The checker is used by property tests to prove
// that the SSI rules plus commit-turn validation only ever admit
// serializable histories.
type CommittedTx struct {
	Name           string // diagnostic label
	Block          int64
	Seq            int // within block
	SnapshotHeight int64

	ReadRows     map[storage.ItemRef]struct{}
	ReadRanges   []storage.RangeRef
	WrittenOld   map[storage.ItemRef]struct{}
	InsertedRefs []storage.ItemRef
	InsertedKeys []KeyAt
}

// CheckSerializable builds the multi-version serialization graph (MVSG,
// Adya et al.) over a committed history and reports an error if it
// contains a cycle — i.e. if the history corresponds to no serial order.
//
// Edge rules:
//
//	wr: T1 created a version T2 read            → T1 → T2
//	ww: T1 created a version T2 superseded      → T1 → T2
//	rw: T2 read a version T1 superseded         → T2 → T1
//	rw (predicate): T1 inserted a key inside a range T2 scanned and T2
//	    could not see it (T1 committed after T2's snapshot) → T2 → T1
func CheckSerializable(txs []*CommittedTx) error {
	n := len(txs)
	adj := mvsg(txs)

	// Cycle detection (iterative DFS, colors).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	for s := 0; s < n; s++ {
		if color[s] != white {
			continue
		}
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if color[v] == white {
				color[v] = gray
				for _, w := range adj[v] {
					switch color[w] {
					case white:
						parent[w] = v
						stack = append(stack, w)
					case gray:
						return fmt.Errorf("ssi: serialization cycle: %s", cyclePath(txs, parent, v, w))
					}
				}
			} else {
				color[v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// cyclePath renders the cycle ending with edge v→w for diagnostics.
func cyclePath(txs []*CommittedTx, parent []int, v, w int) string {
	var names []string
	for x := v; x != -1 && x != w; x = parent[x] {
		names = append(names, txs[x].Name)
	}
	names = append(names, txs[w].Name)
	// Reverse for forward order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := ""
	for _, nm := range names {
		if out != "" {
			out += " → "
		}
		out += nm
	}
	return out + " → " + names[0]
}

// SerialOrder returns a topological order of the committed history when
// one exists (the apparent serial execution order).
func SerialOrder(txs []*CommittedTx) ([]string, error) {
	if err := CheckSerializable(txs); err != nil {
		return nil, err
	}
	// Kahn-sort the same graph; ties broken by (block, seq) so the
	// output is deterministic.
	n := len(txs)
	adj := mvsg(txs)
	indeg := make([]int, n)
	for _, out := range adj {
		for _, w := range out {
			indeg[w]++
		}
	}
	var ready []int
	for i := range txs {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var out []string
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			ta, tb := txs[ready[a]], txs[ready[b]]
			if ta.Block != tb.Block {
				return ta.Block < tb.Block
			}
			return ta.Seq < tb.Seq
		})
		v := ready[0]
		ready = ready[1:]
		out = append(out, txs[v].Name)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("ssi: internal: topological sort incomplete")
	}
	return out, nil
}

// mvsg builds the multi-version serialization graph of a committed
// history as adjacency lists over txs' indexes, by the edge rules
// CheckSerializable lists.
func mvsg(txs []*CommittedTx) [][]int {
	creator := make(map[storage.ItemRef]int) // version → creating tx index
	for i, t := range txs {
		for _, ir := range t.InsertedRefs {
			creator[ir] = i
		}
	}
	adj := make([][]int, len(txs))
	addEdge := func(from, to int) {
		if from != to {
			adj[from] = append(adj[from], to)
		}
	}
	for i, t := range txs {
		// wr and rw(row) edges via read rows.
		for ir := range t.ReadRows {
			if c, ok := creator[ir]; ok {
				addEdge(c, i) // wr: creator before reader
			}
			for j, u := range txs {
				if _, wrote := u.WrittenOld[ir]; wrote {
					addEdge(i, j) // rw: reader before superseder
				}
			}
		}
		// ww edges: creator before superseder.
		for ir := range t.WrittenOld {
			if c, ok := creator[ir]; ok {
				addEdge(c, i)
			}
		}
		// Predicate rw edges.
		for _, rr := range t.ReadRanges {
			for j, u := range txs {
				for _, k := range u.InsertedKeys {
					if k.Table == rr.Table && k.Index == rr.Index && rr.Range.Contains(k.Key) {
						// Did t see u's insert? Only if u committed at or
						// below t's snapshot.
						if u.Block > t.SnapshotHeight {
							addEdge(i, j)
						}
					}
				}
			}
		}
	}
	return adj
}
