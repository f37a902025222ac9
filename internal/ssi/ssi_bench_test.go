package ssi

import (
	"math/rand"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// buildBlock constructs n transactions with overlapping read/write sets
// (every tx reads 4 rows and supersedes 1, with sharing that creates rw
// edges).
func buildBlock(n int) []*TxInfo {
	txs := make([]*TxInfo, n)
	for i := 0; i < n; i++ {
		info := &TxInfo{
			Seq:      i,
			ReadRows: make(map[storage.ItemRef]struct{}, 4),
			WrittenOld: map[storage.ItemRef]struct{}{
				{Table: "t", Ref: uint64(i % (n / 2))}: {},
			},
		}
		for j := 0; j < 4; j++ {
			info.ReadRows[storage.ItemRef{Table: "t", Ref: uint64((i + j) % n)}] = struct{}{}
		}
		txs[i] = info
	}
	return txs
}

func benchAnalysis(b *testing.B, mode Mode, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txs := buildBlock(n)
		a := NewAnalysis(mode, txs)
		for seq := 0; seq < n; seq++ {
			if a.ShouldAbort(seq) != ReasonNone {
				a.MarkAborted(seq)
			} else {
				a.MarkCommitted(seq)
			}
		}
	}
}

// BenchmarkNewAnalysisTransferBlock builds the graph of one execute-order
// block of 100 transfers over 1024 accounts, shaped as the commit stage
// hands them in: each transfer has point reads of its two accounts, then
// UPDATEs both (two point ranges scanned, two versions superseded, two new
// primary keys inserted).
func BenchmarkNewAnalysisTransferBlock(b *testing.B) {
	const n, accounts = 100, 1024
	rng := rand.New(rand.NewSource(1))
	pk := func(id int64) index.Range { return index.PointRange(types.Key{types.NewInt(id)}) }
	txs := make([]*TxInfo, n)
	for i := range txs {
		from := rng.Int63n(accounts)
		to := (from + 1 + rng.Int63n(accounts-1)) % accounts
		info := &TxInfo{
			Seq:        i,
			ReadRows:   map[storage.ItemRef]struct{}{},
			WrittenOld: map[storage.ItemRef]struct{}{},
		}
		for _, id := range []int64{from, to, from, to} {
			info.ReadRanges = append(info.ReadRanges, storage.RangeRef{Table: "accounts", Index: "accounts_pkey", Range: pk(id)})
		}
		for _, id := range []int64{from, to} {
			info.ReadRows[storage.ItemRef{Table: "accounts", Ref: uint64(id)}] = struct{}{}
			info.WrittenOld[storage.ItemRef{Table: "accounts", Ref: uint64(id)}] = struct{}{}
			info.InsertedKeys = append(info.InsertedKeys, KeyAt{Table: "accounts", Index: "accounts_pkey", Key: types.Key{types.NewInt(id)}})
		}
		txs[i] = info
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysisSink = NewAnalysis(ExecuteOrderParallel, txs)
	}
}

var analysisSink *Analysis

func BenchmarkAnalysisOE100(b *testing.B) { benchAnalysis(b, OrderThenExecute, 100) }
func BenchmarkAnalysisOE500(b *testing.B) { benchAnalysis(b, OrderThenExecute, 500) }
func BenchmarkAnalysisEO100(b *testing.B) { benchAnalysis(b, ExecuteOrderParallel, 100) }
func BenchmarkAnalysisEO500(b *testing.B) { benchAnalysis(b, ExecuteOrderParallel, 500) }
