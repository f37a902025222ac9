package engine

import (
	"fmt"
	"strings"
	"testing"

	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

func benchHarness(b *testing.B) *harness {
	st := storage.NewStore()
	h := &harness{st: st, eng: New(st)}
	rec := storage.NewTxRecord(st.BeginTx(), 0)
	ctx := &ExecCtx{Mode: ModeSystem, Rec: rec}
	ddl := []string{
		`CREATE TABLE accounts (id BIGINT PRIMARY KEY, owner TEXT, balance DOUBLE, region TEXT)`,
		`CREATE INDEX accounts_region ON accounts (region)`,
	}
	for _, d := range ddl {
		if _, err := h.eng.ExecSQL(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
	st.AbortTx(rec)
	// Seed 10k rows.
	seed := storage.NewTxRecord(st.BeginTx(), 0)
	sctx := &ExecCtx{Mode: ModeSystem, Rec: seed}
	for i := 0; i < 10_000; i += 500 {
		stmt := "INSERT INTO accounts VALUES "
		for j := 0; j < 500; j++ {
			if j > 0 {
				stmt += ", "
			}
			id := i + j
			stmt += fmt.Sprintf("(%d, 'u%d', %d.5, 'r%d')", id, id, id%1000, id%20)
		}
		if _, err := h.eng.ExecSQL(sctx, stmt); err != nil {
			b.Fatal(err)
		}
	}
	st.CommitTx(seed, 1)
	st.SetHeight(1)
	h.block = 1
	return h
}

func BenchmarkPointSelect(b *testing.B) {
	h := benchHarness(b)
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := h.eng.ExecSQL(ctx, fmt.Sprintf(`SELECT balance FROM accounts WHERE id = %d`, i%10_000))
		if err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedRangeAggregate(b *testing.B) {
	h := benchHarness(b)
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := h.eng.ExecSQL(ctx, fmt.Sprintf(`SELECT COUNT(*), SUM(balance) FROM accounts WHERE region = 'r%d'`, i%20))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContractStyleInsert(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := storage.NewTxRecord(h.st.BeginTx(), 1)
		ctx := &ExecCtx{Mode: ModeContract, Height: 1, Rec: rec,
			Params: []types.Value{types.NewInt(int64(100_000 + i))}}
		_, err := h.eng.ExecSQL(ctx, `INSERT INTO accounts VALUES ($1, 'bench', 0.0, 'rb')`)
		if err != nil {
			b.Fatal(err)
		}
		h.st.CommitTx(rec, 2)
	}
}

func BenchmarkGroupByQuery(b *testing.B) {
	h := benchHarness(b)
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := h.eng.ExecSQL(ctx, `SELECT region, COUNT(*), AVG(balance) FROM accounts GROUP BY region ORDER BY region`)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// joinHarness loads the complex-join contract's data set: 50 regions of 10
// orders with 5 items each, indexed for the join.
func joinHarness(tb testing.TB) *harness {
	st := storage.NewStore()
	h := &harness{st: st, eng: New(st)}
	rec := storage.NewTxRecord(st.BeginTx(), 0)
	ctx := &ExecCtx{Mode: ModeSystem, Rec: rec}
	exec := func(sql string) {
		if _, err := h.eng.ExecSQL(ctx, sql); err != nil {
			tb.Fatal(err)
		}
	}
	exec(`CREATE TABLE orders (id BIGINT PRIMARY KEY, region BIGINT NOT NULL, customer BIGINT, status TEXT)`)
	exec(`CREATE INDEX orders_region ON orders (region)`)
	exec(`CREATE TABLE order_items (id BIGINT PRIMARY KEY, order_id BIGINT NOT NULL, qty BIGINT, price DOUBLE)`)
	exec(`CREATE INDEX order_items_order ON order_items (order_id)`)
	var orders, items []string
	for o := 0; o < 500; o++ {
		orders = append(orders, fmt.Sprintf("(%d, %d, %d, 'open')", o, o%50, o%997))
		for k := 0; k < 5; k++ {
			items = append(items, fmt.Sprintf("(%d, %d, %d, %d.25)", o*5+k, o, 1+k, 3+o%7))
		}
	}
	exec("INSERT INTO orders VALUES " + strings.Join(orders, ", "))
	exec("INSERT INTO order_items VALUES " + strings.Join(items, ", "))
	st.CommitTx(rec, 1)
	st.SetHeight(1)
	h.block = 1
	return h
}

const joinAggregateSQL = `SELECT SUM(oi.qty * oi.price), COUNT(*) FROM orders o JOIN order_items oi ON oi.order_id = o.id WHERE o.region = $1`

// joinAggregateTx runs the complex_join contract's query the way a replica
// does: in a tracked execute-order transaction (every read recorded, an
// index mandatory), 10 outer rows probing 50 inner ones.
func joinAggregateTx(tb testing.TB, h *harness, region int64) {
	rec := storage.AcquireTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec, RequireIndex: true,
		Params: []types.Value{types.NewInt(region)}}
	res, err := h.eng.ExecSQL(ctx, joinAggregateSQL)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Int() != 50 {
		tb.Fatalf("join aggregate: %v %v", res, err)
	}
	h.st.AbortTx(rec)
	storage.ReleaseTxRecord(rec)
}

func BenchmarkJoinAggregate(b *testing.B) {
	h := joinHarness(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		joinAggregateTx(b, h, int64(i%50))
	}
}
