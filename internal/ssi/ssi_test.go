package ssi

import (
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// --- test helpers -------------------------------------------------------------

func ref(table string, n uint64) storage.ItemRef { return storage.ItemRef{Table: table, Ref: n} }

type txBuilder struct{ info *TxInfo }

func tx(seq int, height int64) *txBuilder {
	return &txBuilder{info: &TxInfo{
		Seq:            seq,
		SnapshotHeight: height,
		ReadRows:       make(map[storage.ItemRef]struct{}),
		WrittenOld:     make(map[storage.ItemRef]struct{}),
	}}
}

func (b *txBuilder) reads(irs ...storage.ItemRef) *txBuilder {
	for _, ir := range irs {
		b.info.ReadRows[ir] = struct{}{}
	}
	return b
}

func (b *txBuilder) writesOld(irs ...storage.ItemRef) *txBuilder {
	for _, ir := range irs {
		b.info.WrittenOld[ir] = struct{}{}
	}
	return b
}

func (b *txBuilder) scansRange(table, ix string, lo, hi int64) *txBuilder {
	b.info.ReadRanges = append(b.info.ReadRanges, storage.RangeRef{
		Table: table, Index: ix,
		Range: index.Range{
			Lo: types.Key{types.NewInt(lo)}, Hi: types.Key{types.NewInt(hi)},
			LoInc: true, HiInc: true,
		},
	})
	return b
}

func (b *txBuilder) inserts(table, ix string, key int64) *txBuilder {
	b.info.InsertedKeys = append(b.info.InsertedKeys, KeyAt{
		Table: table, Index: ix, Key: types.Key{types.NewInt(key)},
	})
	return b
}

// runBlock walks the analysis in commit order, consulting ShouldAbort,
// and returns which seqs aborted.
func runBlock(a *Analysis, n int) map[int]AbortReason {
	aborted := make(map[int]AbortReason)
	for seq := 0; seq < n; seq++ {
		if r := a.ShouldAbort(seq); r != ReasonNone {
			aborted[seq] = r
			a.MarkAborted(seq)
		} else {
			a.MarkCommitted(seq)
		}
	}
	return aborted
}

// --- edge construction ----------------------------------------------------------

func TestRowEdge(t *testing.T) {
	// T0 reads v, T1 supersedes v → edge 0→1.
	t0 := tx(0, 0).reads(ref("t", 1)).info
	t1 := tx(1, 0).writesOld(ref("t", 1)).info
	a := NewAnalysis(OrderThenExecute, []*TxInfo{t0, t1})
	edges := a.Edges()
	if len(edges) != 1 || edges[0] != [2]int{0, 1} {
		t.Fatalf("edges = %v", edges)
	}
}

func TestPredicateEdge(t *testing.T) {
	// T0 scans [0,100] on t.pk, T1 inserts key 50 → edge 0→1.
	t0 := tx(0, 0).scansRange("t", "pk", 0, 100).info
	t1 := tx(1, 0).inserts("t", "pk", 50).info
	a := NewAnalysis(OrderThenExecute, []*TxInfo{t0, t1})
	if edges := a.Edges(); len(edges) != 1 || edges[0] != [2]int{0, 1} {
		t.Fatalf("edges = %v", edges)
	}
	// Outside the range: no edge.
	t2 := tx(0, 0).scansRange("t", "pk", 0, 100).info
	t3 := tx(1, 0).inserts("t", "pk", 500).info
	a2 := NewAnalysis(OrderThenExecute, []*TxInfo{t2, t3})
	if edges := a2.Edges(); len(edges) != 0 {
		t.Fatalf("edges = %v", edges)
	}
	// Different index: no edge.
	t4 := tx(0, 0).scansRange("t", "pk", 0, 100).info
	t5 := tx(1, 0).inserts("t", "other", 50).info
	a3 := NewAnalysis(OrderThenExecute, []*TxInfo{t4, t5})
	if edges := a3.Edges(); len(edges) != 0 {
		t.Fatalf("edges = %v", edges)
	}
}

func TestNoSelfEdge(t *testing.T) {
	// A transaction reading what it writes gets no self-edge.
	t0 := tx(0, 0).reads(ref("t", 1)).writesOld(ref("t", 1)).info
	a := NewAnalysis(OrderThenExecute, []*TxInfo{t0})
	if edges := a.Edges(); len(edges) != 0 {
		t.Fatalf("edges = %v", edges)
	}
}

// --- order-then-execute rules ------------------------------------------------------

func TestOESingleRWEdgeCommitsBoth(t *testing.T) {
	// Reader before writer in block order: writer commits, then at
	// reader... reader's out edge to committed writer triggers the
	// fig 2(c) rule only when the writer committed first. Order matters.
	// Case A: writer (seq 0) commits first, reader (seq 1) has committed
	// outConflict → reader aborts.
	w := tx(0, 0).writesOld(ref("t", 1)).info
	r := tx(1, 0).reads(ref("t", 1)).info
	a := NewAnalysis(OrderThenExecute, []*TxInfo{w, r})
	aborted := runBlock(a, 2)
	if aborted[0] != ReasonNone || aborted[1] != ReasonOutCommitted {
		t.Fatalf("aborted = %v", aborted)
	}

	// Case B: reader (seq 0) commits first; writer (seq 1) has only an
	// in-edge → both commit (single rw edge is serializable: reader
	// serializes before writer).
	r2 := tx(0, 0).reads(ref("t", 1)).info
	w2 := tx(1, 0).writesOld(ref("t", 1)).info
	a2 := NewAnalysis(OrderThenExecute, []*TxInfo{r2, w2})
	aborted2 := runBlock(a2, 2)
	if len(aborted2) != 0 {
		t.Fatalf("aborted = %v", aborted2)
	}
}

func TestOETwoTxCycleAbortsOne(t *testing.T) {
	// Fig 2(a): T0 reads x writes y; T1 reads y writes x.
	t0 := tx(0, 0).reads(ref("t", 1)).writesOld(ref("t", 2)).info
	t1 := tx(1, 0).reads(ref("t", 2)).writesOld(ref("t", 1)).info
	a := NewAnalysis(OrderThenExecute, []*TxInfo{t0, t1})
	aborted := runBlock(a, 2)
	if len(aborted) != 1 {
		t.Fatalf("exactly one of a 2-cycle must abort: %v", aborted)
	}
	if _, ok := aborted[1]; !ok {
		t.Fatalf("later transaction should abort: %v", aborted)
	}
}

func TestOEPivotMarking(t *testing.T) {
	// Structure F→N→T with T committing first (T seq 0, N seq 1, F seq 2);
	// at T's commit both N and F are uncommitted → N (the pivot) is
	// marked and aborts at its turn; F survives.
	tt := tx(0, 0).writesOld(ref("t", 10)).info                    // T writes v10
	n := tx(1, 0).reads(ref("t", 10)).writesOld(ref("t", 20)).info // N reads v10 (N→T), writes v20
	f := tx(2, 0).reads(ref("t", 20)).info                         // F reads v20 (F→N)
	a := NewAnalysis(OrderThenExecute, []*TxInfo{tt, n, f})
	aborted := runBlock(a, 3)
	if aborted[1] != ReasonPivotMarked {
		t.Fatalf("pivot should be marked: %v", aborted)
	}
	if _, ok := aborted[2]; ok {
		t.Fatalf("farConflict should survive: %v", aborted)
	}
	if _, ok := aborted[0]; ok {
		t.Fatalf("anchor should survive: %v", aborted)
	}
}

func TestOEAbortedTxEdgesRemoved(t *testing.T) {
	// If the writer a reader depends on aborts (e.g. ww loser), the
	// reader need not abort.
	w1 := tx(0, 0).writesOld(ref("t", 1)).info
	w2 := tx(1, 0).writesOld(ref("t", 1)).info // ww conflict with w1 (storage aborts it)
	r := tx(2, 0).reads(ref("t", 1)).info      // edge r→w1, r→w2
	a := NewAnalysis(OrderThenExecute, []*TxInfo{w1, w2, r})

	if reason := a.ShouldAbort(0); reason != ReasonNone {
		t.Fatalf("w1: %v", reason)
	}
	a.MarkCommitted(0)
	// Storage-level ww validation would abort w2.
	a.MarkAborted(1)
	// r has out-edge to committed w1 → aborts per fig 2(c) rule.
	if reason := a.ShouldAbort(2); reason != ReasonOutCommitted {
		t.Fatalf("r: %v", reason)
	}
}

// --- execute-order-in-parallel (Table 2) --------------------------------------------

// TestTable2AbortRules exercises the same-block rows of Table 2.
func TestTable2AbortRules(t *testing.T) {
	// Both conflicts in block, nearConflict earlier (commits first):
	// abort farConflict (row 1: "to commit first: nearConflict → abort
	// farConflict").
	t.Run("both-in-block-near-first", func(t *testing.T) {
		// anchor X seq 0 writes v1; N seq 1 reads v1 writes v2 (N→X);
		// F seq 2 reads v2 (F→N). N earlier than F → victim F.
		x := tx(0, 0).writesOld(ref("t", 1)).info
		n := tx(1, 0).reads(ref("t", 1)).writesOld(ref("t", 2)).info
		f := tx(2, 0).reads(ref("t", 2)).info
		a := NewAnalysis(ExecuteOrderParallel, []*TxInfo{x, n, f})
		aborted := runBlock(a, 3)
		if _, ok := aborted[2]; !ok {
			t.Fatalf("farConflict (later) should abort: %v", aborted)
		}
		if len(aborted) != 1 {
			t.Fatalf("only one abort expected: %v", aborted)
		}
	})

	// Both in block, farConflict earlier: abort nearConflict (row 2).
	t.Run("both-in-block-far-first", func(t *testing.T) {
		// F seq 0 reads v2; N seq 2 reads v1 writes v2; X seq 1 writes v1.
		f := tx(0, 0).reads(ref("t", 2)).info
		x := tx(1, 0).writesOld(ref("t", 1)).info
		n := tx(2, 0).reads(ref("t", 1)).writesOld(ref("t", 2)).info
		a := NewAnalysis(ExecuteOrderParallel, []*TxInfo{f, x, n})
		aborted := runBlock(a, 3)
		if _, ok := aborted[2]; !ok {
			t.Fatalf("nearConflict (later) should abort: %v", aborted)
		}
		if len(aborted) != 1 {
			t.Fatalf("only one abort expected: %v", aborted)
		}
	})

	// nearConflict in block, no farConflict: no abort (row 6: single rw
	// edge within a block is serializable).
	t.Run("near-in-block-no-far", func(t *testing.T) {
		x := tx(0, 0).writesOld(ref("t", 1)).info
		n := tx(1, 0).reads(ref("t", 1)).info
		a := NewAnalysis(ExecuteOrderParallel, []*TxInfo{x, n})
		aborted := runBlock(a, 2)
		if len(aborted) != 0 {
			t.Fatalf("no aborts expected: %v", aborted)
		}
	})

	// Two-transaction cycle within a block (N doubles as F): later
	// aborts.
	t.Run("two-cycle-in-block", func(t *testing.T) {
		t0 := tx(0, 0).reads(ref("t", 1)).writesOld(ref("t", 2)).info
		t1 := tx(1, 0).reads(ref("t", 2)).writesOld(ref("t", 1)).info
		a := NewAnalysis(ExecuteOrderParallel, []*TxInfo{t0, t1})
		aborted := runBlock(a, 2)
		if len(aborted) != 1 {
			t.Fatalf("one abort expected: %v", aborted)
		}
		if _, ok := aborted[1]; !ok {
			t.Fatalf("later should abort: %v", aborted)
		}
	})

	// EO mode must NOT apply the out-committed rule: writer first, then
	// reader — both commit (the cross-block case is handled by storage
	// validation instead).
	t.Run("no-out-committed-rule", func(t *testing.T) {
		w := tx(0, 0).writesOld(ref("t", 1)).info
		r := tx(1, 0).reads(ref("t", 1)).info
		a := NewAnalysis(ExecuteOrderParallel, []*TxInfo{w, r})
		aborted := runBlock(a, 2)
		if len(aborted) != 0 {
			t.Fatalf("no aborts expected in EO for single edge: %v", aborted)
		}
	})
}

func TestTable2PredicateStructure(t *testing.T) {
	// Dangerous structure via predicates: F scans range that N inserts
	// into; N scans range that X inserts into. All same block.
	x := tx(0, 5).inserts("t", "pk", 7).info
	n := tx(1, 5).scansRange("t", "pk", 0, 10).inserts("t", "pk", 55).info
	f := tx(2, 5).scansRange("t", "pk", 50, 60).info
	a := NewAnalysis(ExecuteOrderParallel, []*TxInfo{x, n, f})
	aborted := runBlock(a, 3)
	// Structure F→N→X: both in block, N (seq 1) before F (seq 2): victim F.
	if _, ok := aborted[2]; !ok || len(aborted) != 1 {
		t.Fatalf("aborted = %v", aborted)
	}
}

// --- checker -----------------------------------------------------------------------

func ctx(name string, block int64, seq int, height int64) *CommittedTx {
	return &CommittedTx{
		Name: name, Block: block, Seq: seq, SnapshotHeight: height,
		ReadRows:   make(map[storage.ItemRef]struct{}),
		WrittenOld: make(map[storage.ItemRef]struct{}),
	}
}

func TestCheckerAcceptsSerialHistory(t *testing.T) {
	// T1 inserts v1; T2 reads v1 and inserts v2; T3 reads v2.
	t1 := ctx("T1", 1, 0, 0)
	t1.InsertedRefs = []storage.ItemRef{ref("t", 1)}
	t2 := ctx("T2", 2, 0, 1)
	t2.ReadRows[ref("t", 1)] = struct{}{}
	t2.InsertedRefs = []storage.ItemRef{ref("t", 2)}
	t3 := ctx("T3", 3, 0, 2)
	t3.ReadRows[ref("t", 2)] = struct{}{}

	if err := CheckSerializable([]*CommittedTx{t1, t2, t3}); err != nil {
		t.Fatalf("serial history rejected: %v", err)
	}
	order, err := SerialOrder([]*CommittedTx{t1, t2, t3})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "T1" || order[1] != "T2" || order[2] != "T3" {
		t.Fatalf("order = %v", order)
	}
}

func TestCheckerRejectsRWCycle(t *testing.T) {
	// Classic write-skew: T1 reads v2 and supersedes v1; T2 reads v1 and
	// supersedes v2. Both committed → cycle T1→T2→T1.
	t1 := ctx("T1", 1, 0, 0)
	t1.ReadRows[ref("t", 2)] = struct{}{}
	t1.WrittenOld[ref("t", 1)] = struct{}{}
	t2 := ctx("T2", 1, 1, 0)
	t2.ReadRows[ref("t", 1)] = struct{}{}
	t2.WrittenOld[ref("t", 2)] = struct{}{}

	if err := CheckSerializable([]*CommittedTx{t1, t2}); err == nil {
		t.Fatal("write-skew cycle not detected")
	}
}

func TestCheckerPredicateCycle(t *testing.T) {
	// T1 scans range and T2 inserts into it (invisible to T1) and vice
	// versa: mutual phantom write-skew.
	t1 := ctx("T1", 2, 0, 1)
	t1.ReadRanges = []storage.RangeRef{{Table: "t", Index: "pk",
		Range: index.Range{Lo: types.Key{types.NewInt(0)}, Hi: types.Key{types.NewInt(10)}, LoInc: true, HiInc: true}}}
	t1.InsertedKeys = []KeyAt{{Table: "t", Index: "pk", Key: types.Key{types.NewInt(50)}}}
	t2 := ctx("T2", 2, 1, 1)
	t2.ReadRanges = []storage.RangeRef{{Table: "t", Index: "pk",
		Range: index.Range{Lo: types.Key{types.NewInt(40)}, Hi: types.Key{types.NewInt(60)}, LoInc: true, HiInc: true}}}
	t2.InsertedKeys = []KeyAt{{Table: "t", Index: "pk", Key: types.Key{types.NewInt(5)}}}

	if err := CheckSerializable([]*CommittedTx{t1, t2}); err == nil {
		t.Fatal("phantom write-skew not detected")
	}
	// If T2's insert was visible to T1 (committed below T1's snapshot),
	// there is no rw edge from T1, so no cycle.
	t2.Block = 1
	t2.Seq = 0
	t1.SnapshotHeight = 1
	t2.InsertedKeys = t2.InsertedKeys[:1]
	t2.ReadRanges = nil // break the reverse edge
	if err := CheckSerializable([]*CommittedTx{t1, t2}); err != nil {
		t.Fatalf("visible insert should not create rw edge: %v", err)
	}
}

func TestCheckerWWChain(t *testing.T) {
	// T1 creates v1; T2 supersedes v1 creating v2; T3 supersedes v2.
	t1 := ctx("T1", 1, 0, 0)
	t1.InsertedRefs = []storage.ItemRef{ref("t", 1)}
	t2 := ctx("T2", 2, 0, 1)
	t2.WrittenOld[ref("t", 1)] = struct{}{}
	t2.InsertedRefs = []storage.ItemRef{ref("t", 2)}
	t3 := ctx("T3", 3, 0, 2)
	t3.WrittenOld[ref("t", 2)] = struct{}{}

	if err := CheckSerializable([]*CommittedTx{t3, t1, t2}); err != nil {
		t.Fatalf("ww chain rejected: %v", err)
	}
}

func TestSerialOrderFollowsPredicateEdges(t *testing.T) {
	// T2 inserts key 7 in block 2; T1, in block 3 but on snapshot 1,
	// scanned key 7 and could not see it. The predicate rw edge T1 → T2
	// puts T1 first although its block is later.
	inserter := ctx("inserter", 2, 0, 1)
	inserter.InsertedKeys = []KeyAt{{Table: "t", Index: "t_pkey", Key: types.Key{types.NewInt(7)}}}
	scanner := ctx("scanner", 3, 0, 1)
	scanner.ReadRanges = []storage.RangeRef{{Table: "t", Index: "t_pkey",
		Range: index.PointRange(types.Key{types.NewInt(7)})}}

	order, err := SerialOrder([]*CommittedTx{inserter, scanner})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "scanner" || order[1] != "inserter" {
		t.Fatalf("order = %v, want [scanner inserter]", order)
	}
}
