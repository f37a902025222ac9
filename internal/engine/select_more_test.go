package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// seedStarSchema builds a small star schema for multi-way join tests.
func seedStarSchema(h *harness) {
	h.ddl(`CREATE TABLE customers (id BIGINT PRIMARY KEY, name TEXT, city TEXT)`)
	h.ddl(`CREATE TABLE products (id BIGINT PRIMARY KEY, name TEXT, price DOUBLE)`)
	h.ddl(`CREATE TABLE sales (id BIGINT PRIMARY KEY, customer_id BIGINT, product_id BIGINT, qty BIGINT)`)
	h.ddl(`CREATE INDEX sales_customer ON sales (customer_id)`)
	h.ddl(`CREATE INDEX sales_product ON sales (product_id)`)
	h.exec(`INSERT INTO customers VALUES (1, 'ada', 'london'), (2, 'brin', 'moscow'), (3, 'curie', 'paris')`)
	h.exec(`INSERT INTO products VALUES (10, 'widget', 2.5), (11, 'gadget', 10.0)`)
	h.exec(`INSERT INTO sales VALUES
		(100, 1, 10, 4), (101, 1, 11, 1), (102, 2, 10, 2), (103, 3, 11, 3)`)
}

func TestThreeWayJoin(t *testing.T) {
	h := newHarness(t)
	seedStarSchema(h)
	res := h.query(`
		SELECT c.name, p.name, s.qty * p.price AS amount
		FROM sales s
		JOIN customers c ON c.id = s.customer_id
		JOIN products p ON p.id = s.product_id
		ORDER BY amount DESC`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	if res.Rows[0][0].Str() != "curie" || res.Rows[0][2].Float() != 30.0 {
		t.Fatalf("top = %v", res.Rows[0])
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE emp (id BIGINT PRIMARY KEY, name TEXT, manager_id BIGINT)`)
	h.ddl(`CREATE INDEX emp_mgr ON emp (manager_id)`)
	h.exec(`INSERT INTO emp VALUES (1, 'ceo', 0), (2, 'cto', 1), (3, 'eng', 2), (4, 'eng2', 2)`)
	res := h.query(`
		SELECT e.name, m.name AS boss FROM emp e
		JOIN emp m ON m.id = e.manager_id
		ORDER BY e.id`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	if res.Rows[1][0].Str() != "eng" || res.Rows[1][1].Str() != "cto" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestJoinGroupHavingLimitPipeline(t *testing.T) {
	h := newHarness(t)
	seedStarSchema(h)
	res := h.query(`
		SELECT c.city, SUM(s.qty * p.price) AS revenue, COUNT(*) AS n
		FROM sales s
		JOIN customers c ON c.id = s.customer_id
		JOIN products p ON p.id = s.product_id
		GROUP BY c.city
		HAVING SUM(s.qty * p.price) > 5
		ORDER BY revenue DESC
		LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	if res.Rows[0][0].Str() != "paris" || res.Rows[0][1].Float() != 30.0 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	if res.Rows[1][0].Str() != "london" || res.Rows[1][1].Float() != 20.0 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestLeftJoinAggregates(t *testing.T) {
	h := newHarness(t)
	seedStarSchema(h)
	h.exec(`INSERT INTO customers VALUES (4, 'dirac', 'bristol')`) // no sales
	res := h.query(`
		SELECT c.name, COUNT(s.id) AS n
		FROM customers c LEFT JOIN sales s ON s.customer_id = c.id
		GROUP BY c.name ORDER BY c.name`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// COUNT(s.id) counts non-null only: dirac gets 0.
	for _, r := range res.Rows {
		if r[0].Str() == "dirac" && r[1].Int() != 0 {
			t.Fatalf("dirac count = %v", r[1])
		}
		if r[0].Str() == "ada" && r[1].Int() != 2 {
			t.Fatalf("ada count = %v", r[1])
		}
	}
}

func TestMinMaxOnText(t *testing.T) {
	h := newHarness(t)
	seedStarSchema(h)
	res := h.query(`SELECT MIN(name), MAX(name) FROM customers`)
	if res.Rows[0][0].Str() != "ada" || res.Rows[0][1].Str() != "curie" {
		t.Fatalf("min/max = %v", res.Rows[0])
	}
}

func TestAvgIntStaysExact(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE nums (id BIGINT PRIMARY KEY, v BIGINT)`)
	h.exec(`INSERT INTO nums VALUES (1, 1), (2, 2), (3, 4)`)
	res := h.query(`SELECT SUM(v), AVG(v) FROM nums`)
	if res.Rows[0][0].Kind() != types.KindInt || res.Rows[0][0].Int() != 7 {
		t.Fatalf("sum = %v (%s)", res.Rows[0][0], res.Rows[0][0].Kind())
	}
	if res.Rows[0][1].Float() != 7.0/3.0 {
		t.Fatalf("avg = %v", res.Rows[0][1])
	}
}

func TestOrderByNullsFirstTotalOrder(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE)`)
	h.exec(`INSERT INTO t (id, v) VALUES (1, 2.0), (2, NULL), (3, 1.0)`)
	res := h.query(`SELECT id FROM t ORDER BY v ASC`)
	// NULL sorts first in the total order.
	if res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 3 || res.Rows[2][0].Int() != 1 {
		t.Fatalf("order = %v", rowsToStrings(res))
	}
	res = h.query(`SELECT id FROM t ORDER BY v DESC`)
	if res.Rows[2][0].Int() != 2 {
		t.Fatalf("desc order = %v", rowsToStrings(res))
	}
}

func TestDistinctWithOrderAndLimit(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, grp TEXT)`)
	h.exec(`INSERT INTO t VALUES (1, 'b'), (2, 'a'), (3, 'b'), (4, 'c'), (5, 'a')`)
	res := h.query(`SELECT DISTINCT grp FROM t ORDER BY grp DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "c" || res.Rows[1][0].Str() != "b" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestUpdateWithExpressionsOverOldRow(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	h.exec(`INSERT INTO t VALUES (1, 10, 20)`)
	// Both SET expressions must see the OLD row (swap).
	h.exec(`UPDATE t SET a = b, b = a WHERE id = 1`)
	res := h.query(`SELECT a, b FROM t WHERE id = 1`)
	if res.Rows[0][0].Int() != 20 || res.Rows[0][1].Int() != 10 {
		t.Fatalf("swap = %v (SET must evaluate against the old row)", res.Rows[0])
	}
}

func TestDeleteThenReinsertSamePK(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	h.exec(`INSERT INTO t VALUES (1, 'first')`)
	h.exec(`DELETE FROM t WHERE id = 1`)
	h.exec(`INSERT INTO t VALUES (1, 'second')`)
	res := h.query(`SELECT v FROM t WHERE id = 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "second" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// Provenance shows both generations.
	prov := h.query(`SELECT v FROM t PROVENANCE WHERE id = 1 ORDER BY creator_block`)
	if len(prov.Rows) != 2 {
		t.Fatalf("provenance = %v", rowsToStrings(prov))
	}
}

func TestInsertDeleteSameTransaction(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec}
	if _, err := h.eng.ExecSQL(ctx, `INSERT INTO t VALUES (1, 'x')`); err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.ExecSQL(ctx, `DELETE FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	h.block++
	h.st.CommitTx(rec, h.block)
	h.st.SetHeight(h.block)
	if n := len(h.query(`SELECT * FROM t`).Rows); n != 0 {
		t.Fatalf("rows = %d", n)
	}
}

func TestGroupByExpression(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	h.exec(`INSERT INTO t VALUES (1, 10), (2, 11), (3, 20), (4, 21)`)
	res := h.query(`SELECT v / 10 AS bucket, COUNT(*) FROM t GROUP BY v / 10 ORDER BY bucket`)
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 2 || res.Rows[1][1].Int() != 2 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	h.exec(`INSERT INTO t VALUES (1, 5), (2, 6)`)
	res := h.query(`SELECT SUM(v) FROM t HAVING SUM(v) > 10`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 11 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	res = h.query(`SELECT SUM(v) FROM t HAVING SUM(v) > 100`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestErrorMessagesNameTheProblem(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	// Queries fail eagerly even on an empty table.
	roCases := []struct {
		sql  string
		want string
	}{
		{`SELECT nope FROM t`, "nope"},
		{`SELECT v FROM missing`, "missing"},
		{`SELECT x.v FROM t`, "x"},
		{`SELECT v FROM t WHERE ghost = 1`, "ghost"},
		{`SELECT v FROM t ORDER BY ghost`, "ghost"},
		{`SELECT v, COUNT(*) FROM t GROUP BY ghost`, "ghost"},
	}
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
	for _, c := range roCases {
		_, err := h.eng.ExecSQL(ctx, c.sql)
		if err == nil {
			t.Errorf("%s: expected error", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q should mention %q", c.sql, err, c.want)
		}
	}
	// DML failures name the column too.
	for _, c := range []struct{ sql, want string }{
		{`INSERT INTO t (nope) VALUES (1)`, "nope"},
		{`UPDATE t SET nope = 1`, "nope"},
	} {
		if _, err := h.tryExec(c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v", c.sql, err)
		}
	}
}

// explainLines runs EXPLAIN read-only and returns its rows.
func explainLines(t *testing.T, h *harness, sql string, params ...types.Value) []string {
	t.Helper()
	res := h.query(sql, params...)
	if len(res.Cols) != 1 || res.Cols[0] != "plan" {
		t.Fatalf("EXPLAIN cols = %v", res.Cols)
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = r[0].Str()
	}
	return lines
}

// TestExplainReportsThePlan asserts plans by value: which index serves
// each input, as what kind of access, which join strategy, what is left
// to the filter, and whether the plan was found prepared.
func TestExplainReportsThePlan(t *testing.T) {
	h := joinHarness(t)
	h.t = t
	h.ddl(`CREATE TABLE customers (id BIGINT PRIMARY KEY, name TEXT)`)
	h.ddl(`CREATE TABLE events (id BIGINT PRIMARY KEY, grp BIGINT, seq BIGINT)`)
	h.ddl(`CREATE INDEX events_grp_seq ON events (grp, seq)`)

	got := explainLines(t, h, `EXPLAIN `+joinAggregateSQL, types.NewInt(3))
	want := []string{
		"scan orders as o: point scan of orders_region (region)",
		"inner join order_items as oi: point probe of order_items_order (order_id), on (oi.order_id = o.id)",
		"filter: (o.region = $1)",
		"aggregate: group by ()",
		"project: sum, count",
		"plan cache: miss",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("join plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// Same statement again: the plan is found prepared. A NULL parameter
	// is another bounds shape — no usable bound, so a full scan, chosen
	// anew.
	if got := explainLines(t, h, `EXPLAIN `+joinAggregateSQL, types.NewInt(4)); got[len(got)-1] != "plan cache: hit" {
		t.Errorf("second EXPLAIN: %q", got[len(got)-1])
	}
	got = explainLines(t, h, `EXPLAIN `+joinAggregateSQL, types.Null())
	if got[0] != "scan orders as o: full scan of orders_pkey" || got[len(got)-1] != "plan cache: miss" {
		t.Errorf("NULL-parameter plan: %q", got)
	}

	for _, c := range []struct {
		sql  string
		want []string // lines that must appear
	}{
		{`EXPLAIN SELECT id FROM order_items WHERE id >= 10 AND id < 20 ORDER BY qty DESC LIMIT 5 OFFSET 1`,
			[]string{"scan order_items as order_items: range scan of order_items_pkey (id)", "sort: qty DESC", "limit: 5", "offset: 1"}},
		{`EXPLAIN SELECT DISTINCT status FROM orders WHERE id = 7`,
			[]string{"scan orders as orders: point scan of orders_pkey (id)", "distinct"}},
		{`EXPLAIN SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON c.name = o.status`,
			[]string{"scan orders as o: full scan of orders_pkey", "left join customers as c: nested loop over full scan of customers_pkey, on (c.name = o.status)"}},
		{`EXPLAIN SELECT o.id FROM orders o JOIN customers c ON c.id = o.customer WHERE o.region = 1 AND o.id > 5`,
			[]string{"scan orders as o: point scan of orders_region (region)", "inner join customers as c: point probe of customers_pkey (id), on (c.id = o.customer)"}},
		{`EXPLAIN SELECT e.id FROM orders o JOIN events e ON e.grp = o.id WHERE o.id = 3`,
			[]string{"inner join events as e: prefix probe of events_grp_seq (grp), on (e.grp = o.id)"}},
		{`EXPLAIN SELECT id FROM events WHERE grp = 1 AND seq > 2`,
			[]string{"scan events as events: range scan of events_grp_seq (grp, seq)"}},
		{`EXPLAIN SELECT region, COUNT(*) FROM orders GROUP BY region HAVING COUNT(*) > 1`,
			[]string{"aggregate: group by (region)", "having: (COUNT(*) > 1)"}},
		{`EXPLAIN SELECT 1 + 1`, []string{"result: one row of constants"}},
	} {
		got := strings.Join(explainLines(t, h, c.sql), "\n")
		for _, w := range c.want {
			if !strings.Contains("\n"+got+"\n", "\n"+w+"\n") {
				t.Errorf("%s:\n%s\nlacks line %q", c.sql, got, w)
			}
		}
	}

	// EXPLAIN reports node-local state: not for contracts, nor any context
	// that is not a plain read-only query.
	if _, err := h.tryExec(`EXPLAIN SELECT id FROM orders WHERE id = 1`); !errors.Is(err, ErrExplainCtx) {
		t.Errorf("EXPLAIN in a contract: err = %v", err)
	}
	if _, err := h.eng.ExecSQL(&ExecCtx{Mode: ModeReadOnly, Height: h.block}, `EXPLAIN SELECT nope FROM orders`); err == nil {
		t.Error("EXPLAIN of a query naming an unknown column should fail")
	}
}

// TestFloatSumIndependentOfInsertionOrder loads two stores with the same
// rows in different interleavings — different transactions, different
// order inside them, so heap refs and B-tree shapes differ — and requires
// bit-identical float aggregates through a non-unique index: the scan's
// (index key, primary key) emission order, not insertion history, fixes
// how the additions associate.
func TestFloatSumIndependentOfInsertionOrder(t *testing.T) {
	type item struct {
		id, order int64
		price     float64
	}
	var items []item
	for i := int64(0); i < 60; i++ {
		// Magnitudes far enough apart that reordering the additions
		// changes the rounded sum.
		p := []float64{0.1, 1e16, 0.2, -1e16, 0.3, 1e-3}[i%6] * float64(1+i%7)
		items = append(items, item{id: i, order: i % 3, price: p})
	}
	load := func(perm func(i int) int, batch int) *harness {
		h := newHarness(t)
		h.ddl(`CREATE TABLE orders (id BIGINT PRIMARY KEY, region BIGINT)`)
		h.ddl(`CREATE TABLE order_items (id BIGINT PRIMARY KEY, order_id BIGINT, price DOUBLE)`)
		h.ddl(`CREATE INDEX order_items_order ON order_items (order_id)`)
		h.exec(`INSERT INTO orders VALUES (2, 1), (0, 1), (1, 1)`)
		for lo := 0; lo < len(items); lo += batch {
			var vals []string
			for k := lo; k < lo+batch && k < len(items); k++ {
				it := items[perm(k)]
				vals = append(vals, "("+types.NewInt(it.id).String()+", "+types.NewInt(it.order).String()+", "+types.NewFloat(it.price).SQLLiteral()+")")
			}
			h.exec(`INSERT INTO order_items VALUES ` + strings.Join(vals, ", "))
		}
		return h
	}
	a := load(func(i int) int { return i }, 60)
	b := load(func(i int) int { return (i*37 + 11) % 60 }, 7)
	for _, q := range []string{
		`SELECT SUM(oi.price) FROM orders o JOIN order_items oi ON oi.order_id = o.id WHERE o.region = 1`,
		`SELECT SUM(price), AVG(price) FROM order_items WHERE order_id >= 0`,
		`SELECT o.id, SUM(oi.price) FROM orders o JOIN order_items oi ON oi.order_id = o.id GROUP BY o.id`,
	} {
		ra, rb := a.exec(q), b.exec(q)
		if len(ra.Rows) != len(rb.Rows) {
			t.Fatalf("%s: %d rows vs %d", q, len(ra.Rows), len(rb.Rows))
		}
		for i := range ra.Rows {
			for j := range ra.Rows[i] {
				va, vb := ra.Rows[i][j], rb.Rows[i][j]
				if va.Kind() != vb.Kind() || (va.Kind() == types.KindFloat && math.Float64bits(va.Float()) != math.Float64bits(vb.Float())) || types.Compare(va, vb) != 0 {
					t.Errorf("%s: row %d col %d: %v vs %v", q, i, j, va, vb)
				}
			}
		}
	}
	// The orders differ for real: summing in insertion order disagrees.
	var fwd, perm float64
	for i := range items {
		fwd += items[i].price
		perm += items[(i*37+11)%60].price
	}
	if fwd == perm {
		t.Fatal("test data does not distinguish summation orders")
	}
}
