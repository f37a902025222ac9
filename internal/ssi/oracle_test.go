package ssi

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// The oracle: the predicate-edge builder NewAnalysis used before read
// ranges were bucketed — every inserted key tested against every range of
// every other transaction of the block. It is the reference the bucketed
// builder is held to: same edges, same adjacency order, same abort
// verdicts (TestBuildEdgesMatchesOracle, FuzzBuildEdges).
func oracleBuildEdges(a *Analysis) {
	// Row-granularity edges: reader → superseder.
	writersOf := make(map[storage.ItemRef][]int)
	for _, t := range a.txs {
		for ir := range t.WrittenOld {
			writersOf[ir] = append(writersOf[ir], t.Seq)
		}
	}
	type edge struct{ from, to int }
	seen := make(map[edge]bool)
	addEdge := func(from, to int) {
		if from == to || seen[edge{from, to}] {
			return
		}
		seen[edge{from, to}] = true
		a.out[from] = append(a.out[from], to)
		a.in[to] = append(a.in[to], from)
	}
	for _, t := range a.txs {
		for ir := range t.ReadRows {
			for _, w := range writersOf[ir] {
				addEdge(t.Seq, w)
			}
		}
	}
	// Predicate edges: range-scanner → inserter.
	for _, w := range a.txs {
		for _, k := range w.InsertedKeys {
			for _, r := range a.txs {
				if r.Seq == w.Seq {
					continue
				}
				for _, rr := range r.ReadRanges {
					if rr.Table == k.Table && rr.Index == k.Index && rr.Range.Contains(k.Key) {
						addEdge(r.Seq, w.Seq)
						break
					}
				}
			}
		}
	}
	// Deterministic adjacency order.
	for i := range a.in {
		sort.Ints(a.in[i])
		sort.Ints(a.out[i])
	}
}

// newOracleAnalysis is NewAnalysis with the oracle's edges.
func newOracleAnalysis(mode Mode, txs []*TxInfo) *Analysis {
	n := len(txs)
	a := &Analysis{
		mode:   mode,
		txs:    txs,
		in:     make([][]int, n),
		out:    make([][]int, n),
		st:     make([]state, n),
		marked: make([]AbortReason, n),
	}
	oracleBuildEdges(a)
	if mode == ExecuteOrderParallel {
		a.applyTable2SameBlock()
	}
	return a
}

// keyVocab mixes the kinds the bucketed builder hashes (BIGINT, TEXT) with
// kinds it must not: a DOUBLE equal to a BIGINT, NULL, BOOLEAN, and BYTEA
// spelled like a TEXT value.
var keyVocab = []types.Value{
	types.NewInt(1), types.NewInt(2), types.NewInt(3),
	types.NewString("a"), types.NewString("b"),
	types.NewInt(1), types.NewInt(2), types.NewString("a"),
	types.NewFloat(2), types.NewFloat(2.5), types.Null(), types.NewBool(true), types.NewBytes([]byte("a")),
}

// blockGen draws a random block from pick, which returns a value in [0, n).
type blockGen struct{ pick func(n int) int }

func (g blockGen) key() types.Key {
	k := make(types.Key, []int{1, 1, 2, 2, 3, 0}[g.pick(6)])
	for i := range k {
		if g.pick(4) == 0 {
			k[i] = keyVocab[g.pick(len(keyVocab))]
		} else {
			k[i] = keyVocab[g.pick(8)] // BIGINT and TEXT only
		}
	}
	return k
}

func (g blockGen) rng() index.Range {
	switch g.pick(8) {
	case 0, 1, 2:
		return index.PointRange(g.key())
	case 3: // equal bounds, not both inclusive, or built from separate keys
		k := g.key()
		return index.Range{Lo: k, Hi: append(types.Key(nil), k...), LoInc: g.pick(3) > 0, HiInc: g.pick(3) > 0}
	case 4:
		return index.PrefixRange(g.key())
	case 5:
		return index.AllRange()
	default: // interval, either bound possibly open
		r := index.Range{LoInc: g.pick(2) == 0, HiInc: g.pick(2) == 0}
		if g.pick(4) > 0 {
			r.Lo = g.key()
		}
		if g.pick(4) > 0 {
			r.Hi = g.key()
		}
		return r
	}
}

func (g blockGen) tableIndex() (string, string) {
	return []string{"t", "u"}[g.pick(2)], []string{"pk", "ix"}[g.pick(2)]
}

// block returns n transactions and, per position, whether the storage
// layer will abort it (which the walk feeds to MarkAborted).
func (g blockGen) block(n int) ([]*TxInfo, []bool) {
	txs := make([]*TxInfo, n)
	storageAbort := make([]bool, n)
	ref := func() storage.ItemRef { return storage.ItemRef{Table: "t", Ref: uint64(g.pick(8))} }
	for i := range txs {
		info := &TxInfo{
			Seq:        i,
			ReadRows:   map[storage.ItemRef]struct{}{},
			WrittenOld: map[storage.ItemRef]struct{}{},
		}
		for j := g.pick(3); j > 0; j-- {
			info.ReadRows[ref()] = struct{}{}
		}
		for j := g.pick(2); j > 0; j-- {
			info.WrittenOld[ref()] = struct{}{}
		}
		for j := g.pick(4); j > 0; j-- {
			tb, ix := g.tableIndex()
			info.ReadRanges = append(info.ReadRanges, storage.RangeRef{Table: tb, Index: ix, Range: g.rng()})
		}
		for j := g.pick(3); j > 0; j-- {
			tb, ix := g.tableIndex()
			info.InsertedKeys = append(info.InsertedKeys, KeyAt{Table: tb, Index: ix, Key: g.key()})
		}
		txs[i] = info
		storageAbort[i] = g.pick(5) == 0
	}
	return txs, storageAbort
}

// compareWithOracle builds the block both ways in both modes and walks it
// in commit order, requiring identical edges before the walk, identical
// ShouldAbort verdicts at every turn, and identical edges after it.
func compareWithOracle(txs []*TxInfo, storageAbort []bool) error {
	for _, mode := range []Mode{OrderThenExecute, ExecuteOrderParallel} {
		got, want := NewAnalysis(mode, txs), newOracleAnalysis(mode, txs)
		if !reflect.DeepEqual(got.in, want.in) || !reflect.DeepEqual(got.out, want.out) {
			return fmt.Errorf("mode %d: edges %v, oracle %v", mode, got.Edges(), want.Edges())
		}
		for seq := range txs {
			g, w := got.ShouldAbort(seq), want.ShouldAbort(seq)
			if g != w {
				return fmt.Errorf("mode %d: seq %d: ShouldAbort %q, oracle %q", mode, seq, g, w)
			}
			if g != ReasonNone || storageAbort[seq] {
				got.MarkAborted(seq)
				want.MarkAborted(seq)
			} else {
				got.MarkCommitted(seq)
				want.MarkCommitted(seq)
			}
		}
		if g, w := got.Edges(), want.Edges(); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("mode %d: after the walk: edges %v, oracle %v", mode, g, w)
		}
	}
	return nil
}

func TestBuildEdgesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	g := blockGen{rng.Intn}
	edges := 0
	for i := 0; i < 3000; i++ {
		txs, aborts := g.block(2 + rng.Intn(30))
		if err := compareWithOracle(txs, aborts); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		edges += len(NewAnalysis(OrderThenExecute, txs).Edges())
	}
	if edges == 0 {
		t.Fatal("no block had an edge; the differential compares nothing")
	}
}

// FuzzBuildEdges draws a block from the fuzzer's bytes (each byte one
// choice; an exhausted input reads as zeros) and compares the bucketed
// builder with the oracle.
func FuzzBuildEdges(f *testing.F) {
	f.Add([]byte{8, 0, 1, 0, 2, 1, 1, 0, 3, 2, 0, 1, 1, 1, 0, 4})
	f.Add([]byte("point ranges, prefixes and intervals over mixed keys"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		txs, aborts := blockGen{pick}.block(1 + pick(24))
		if err := compareWithOracle(txs, aborts); err != nil {
			t.Fatal(err)
		}
	})
}
