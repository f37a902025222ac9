package storage

import (
	"fmt"
	"runtime"
	"testing"
)

// TestStoreRetainsNothingPerTransaction runs transactions with no writes
// through BeginTx and CommitTx or AbortTx: the block stamps on versions
// are the store's only commit record, so a transaction that wrote nothing
// leaves nothing behind once its record is dropped.
func TestStoreRetainsNothingPerTransaction(t *testing.T) {
	const txs = 200_000
	s := NewStore()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < txs; i++ {
		rec := NewTxRecord(s.BeginTx(), 0)
		if i%2 == 0 {
			s.AbortTx(rec)
		} else {
			s.CommitTx(rec, 1)
		}
	}
	after := heap()
	runtime.KeepAlive(s)
	perTx := (float64(after) - float64(before)) / txs
	t.Logf("%.1f B retained per transaction over %d transactions", perTx, txs)
	if perTx > 2 {
		t.Fatalf("store retains %.1f B per transaction, want at most 2", perTx)
	}
}

// TestAbortAfterCommitKeepsVersions aborts a record that already
// committed, as the commit stage does for the second entry of a block
// that carries one transaction twice (both entries share one record).
// The abort must change nothing: the committed versions carry a block
// stamp, and AbortTx drops only provisional ones.
func TestAbortAfterCommitKeepsVersions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		if err := s.CreateTable(testSchema("t")); err != nil {
			t.Fatal(err)
		}
		old := insertCommitted(t, s, "t", row(1, "a", 10), 1)

		rec := NewTxRecord(s.BeginTx(), 1)
		if _, err := s.Insert(rec, "t", row(2, "b", 20)); err != nil {
			t.Fatal(err)
		}
		if err := s.MarkDelete(rec, "t", old.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(rec, "t", row(1, "a", 11)); err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(rec, 2); err != nil {
			t.Fatal(err)
		}
		s.CommitTx(rec, 2)
		s.SetHeight(2)
		s.MarkDurable(2)

		hash := s.StateHash(2)
		visible := scanAll(t, s, "t", 0, 2, ScanVisible)
		provenance := scanAll(t, s, "t", 0, 2, ScanProvenance)
		if len(visible) != 2 || len(provenance) != 3 {
			t.Fatalf("before the abort: %d visible, %d provenance rows; want 2 and 3", len(visible), len(provenance))
		}

		s.AbortTx(rec)

		if s.StateHash(2) != hash {
			t.Error("StateHash(2) changed when a committed record was aborted")
		}
		if got := scanAll(t, s, "t", 0, 2, ScanVisible); fmt.Sprint(got) != fmt.Sprint(visible) {
			t.Errorf("visible rows after the abort = %v, want %v", got, visible)
		}
		if got := scanAll(t, s, "t", 0, 2, ScanProvenance); fmt.Sprint(got) != fmt.Sprint(provenance) {
			t.Errorf("provenance rows after the abort = %v, want %v", got, provenance)
		}
	})
}
