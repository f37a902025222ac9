package storage

import (
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

const (
	longChainAccounts = 64
	longChainVersions = 80
	longChainLag      = 3
)

// longChainStore builds a store shaped like a long execute-order run:
// every account has longChainVersions versions, and then every account but
// 0 and 1 gets longChainLag more. It returns the store and each account's
// live heap ref.
func longChainStore(b *testing.B) (*Store, []uint64) {
	s := NewStore()
	if err := s.CreateTable(Schema{
		Name:    "accounts",
		Columns: []Column{{Name: "id", Type: types.KindInt}, {Name: "balance", Type: types.KindFloat}},
		PKCols:  []int{0},
	}); err != nil {
		b.Fatal(err)
	}
	live := make([]uint64, longChainAccounts) // id → live heap ref
	commit := func(block int64, ids []int64) {
		rec := NewTxRecord(s.BeginTx(), block-1)
		for _, id := range ids {
			if block > 1 {
				if err := s.MarkDelete(rec, "accounts", live[id]); err != nil {
					b.Fatal(err)
				}
			}
			v, err := s.Insert(rec, "accounts", types.Row{types.NewInt(id), types.NewFloat(float64(block))})
			if err != nil {
				b.Fatal(err)
			}
			live[id] = v.ID
		}
		s.CommitTx(rec, block)
		s.SetHeight(block)
	}
	all := make([]int64, longChainAccounts)
	for i := range all {
		all[i] = int64(i)
	}
	for blk := int64(1); blk <= longChainVersions; blk++ {
		commit(blk, all)
	}
	for blk := int64(longChainVersions + 1); blk <= longChainVersions+longChainLag; blk++ {
		commit(blk, all[2:]) // accounts 0 and 1 keep their longChainVersions-th version
	}
	return s, live
}

func pk(id int64) index.Range { return index.PointRange(types.Key{types.NewInt(id)}) }

// BenchmarkValidateLongChain times the commit-turn re-check of one
// transfer-shaped record (point reads of two accounts, an UPDATE of each)
// on the long-chain store, the record's snapshot lagging its block by
// longChainLag blocks in which other accounts were updated. The stick's
// storage.validate_* probes run on chains of length one and cannot see
// this cost.
func BenchmarkValidateLongChain(b *testing.B) {
	s, live := longChainStore(b)
	// The transfer 0 → 1, executed at the lagging snapshot: SELECT from,
	// UPDATE from, UPDATE to.
	rec := NewTxRecord(s.BeginTx(), longChainVersions)
	for _, id := range []int64{0, 0, 1} {
		rec.NoteRange("accounts", "accounts_pkey", pk(id))
	}
	for _, id := range []int64{0, 1} {
		rec.NoteRead("accounts", live[id])
		if err := s.MarkDelete(rec, "accounts", live[id]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Insert(rec, "accounts", types.Row{types.NewInt(id), types.NewFloat(0)}); err != nil {
			b.Fatal(err)
		}
	}
	current := int64(longChainVersions + longChainLag + 1)
	if err := s.Validate(rec, current); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(rec, current); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanLongChain times the point read of one account on the
// long-chain store at the current height: one key of the primary index,
// 80 versions under it, one of them visible.
func BenchmarkScanLongChain(b *testing.B) {
	s, live := longChainStore(b)
	rng, height := pk(5), s.Height()
	var got uint64
	read := func(v *RowVersion) bool { got = v.ID; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ScanIndex("accounts", "accounts_pkey", rng, 0, height, ScanVisible, read); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got != live[5] {
		b.Fatalf("read version %d, want the live one %d", got, live[5])
	}
}
