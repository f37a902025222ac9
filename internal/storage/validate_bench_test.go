package storage

import (
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// BenchmarkValidateLongChain times the commit-turn re-check of one
// transfer-shaped record (point reads of two accounts, an UPDATE of each)
// on a store shaped like a long execute-order run: every account has 80
// versions, and the record's snapshot lags its block by 3 blocks in which
// other accounts were updated. The stick's storage.validate_* probes run on
// chains of length one and cannot see this cost.
func BenchmarkValidateLongChain(b *testing.B) {
	const (
		accounts = 64
		versions = 80
		lag      = 3
	)
	s := NewStore()
	if err := s.CreateTable(Schema{
		Name:    "accounts",
		Columns: []Column{{Name: "id", Type: types.KindInt}, {Name: "balance", Type: types.KindFloat}},
		PKCols:  []int{0},
	}); err != nil {
		b.Fatal(err)
	}
	pk := func(id int64) index.Range { return index.PointRange(types.Key{types.NewInt(id)}) }
	live := make([]uint64, accounts) // id → live heap ref
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
	all := make([]int64, accounts)
	for i := range all {
		all[i] = int64(i)
	}
	for blk := int64(1); blk <= versions; blk++ {
		commit(blk, all)
	}
	for blk := int64(versions + 1); blk <= versions+lag; blk++ {
		commit(blk, all[2:]) // accounts 0 and 1 keep their versions-th version
	}

	// The transfer 0 → 1, executed at the lagging snapshot: SELECT from,
	// UPDATE from, UPDATE to.
	rec := NewTxRecord(s.BeginTx(), versions)
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
	current := int64(versions + lag + 1)
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
