package engine

import (
	"errors"
	"strings"
	"testing"

	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// harness wraps an engine with helpers that execute statements inside
// auto-committed transactions, advancing one block per call.
type harness struct {
	t     *testing.T
	st    *storage.Store
	eng   *Engine
	block int64
}

func newHarness(t *testing.T) *harness {
	st := storage.NewStore()
	return &harness{t: t, st: st, eng: New(st)}
}

// ddl runs a DDL statement outside any transaction.
func (h *harness) ddl(sql string) {
	h.t.Helper()
	ctx := &ExecCtx{Mode: ModeSystem, Height: h.block, Rec: storage.NewTxRecord(h.st.BeginTx(), h.block)}
	if _, err := h.eng.ExecSQL(ctx, sql); err != nil {
		h.t.Fatalf("ddl %q: %v", sql, err)
	}
}

// exec runs a DML/SELECT statement in its own transaction committed at the
// next block and returns the result.
func (h *harness) exec(sql string, params ...types.Value) *Result {
	h.t.Helper()
	res, err := h.tryExec(sql, params...)
	if err != nil {
		h.t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func (h *harness) tryExec(sql string, params ...types.Value) (*Result, error) {
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec, Params: params}
	res, err := h.eng.ExecSQL(ctx, sql)
	if err != nil {
		h.st.AbortTx(rec)
		return nil, err
	}
	if rec.HasWrites() {
		h.block++
		h.st.CommitTx(rec, h.block)
		h.st.SetHeight(h.block)
	} else {
		h.st.AbortTx(rec) // read-only: discard the record
	}
	return res, nil
}

// query runs a read-only query at the current height.
func (h *harness) query(sql string, params ...types.Value) *Result {
	h.t.Helper()
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block, Params: params}
	res, err := h.eng.ExecSQL(ctx, sql)
	if err != nil {
		h.t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func (h *harness) seedAccounts() {
	h.t.Helper()
	h.ddl(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, owner TEXT NOT NULL, balance DOUBLE, region TEXT)`)
	h.ddl(`CREATE INDEX accounts_region ON accounts (region)`)
	h.exec(`INSERT INTO accounts VALUES
		(1, 'alice', 100.0, 'emea'),
		(2, 'bob',    50.5, 'apac'),
		(3, 'carol', 200.0, 'emea'),
		(4, 'dave',   75.0, 'amer'),
		(5, 'erin',  125.0, 'apac')`)
}

func rowsToStrings(res *Result) []string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, types.Key(r).String())
	}
	return out
}

func TestInsertAndSelectAll(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT id, owner FROM accounts`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// Primary-key order.
	if res.Rows[0][0].Int() != 1 || res.Rows[4][0].Int() != 5 {
		t.Errorf("order = %v", rowsToStrings(res))
	}
	if res.Cols[0] != "id" || res.Cols[1] != "owner" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelectStar(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT * FROM accounts WHERE id = 2`)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 4 || res.Rows[0][1].Str() != "bob" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	if len(res.Cols) != 4 || res.Cols[3] != "region" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestWherePredicates(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT id FROM accounts WHERE balance > 100`, 2},
		{`SELECT id FROM accounts WHERE balance >= 100`, 3},
		{`SELECT id FROM accounts WHERE region = 'emea'`, 2},
		{`SELECT id FROM accounts WHERE region = 'emea' AND balance > 150`, 1},
		{`SELECT id FROM accounts WHERE region = 'emea' OR region = 'apac'`, 4},
		{`SELECT id FROM accounts WHERE id BETWEEN 2 AND 4`, 3},
		{`SELECT id FROM accounts WHERE id IN (1, 3, 9)`, 2},
		{`SELECT id FROM accounts WHERE id NOT IN (1, 3)`, 3},
		{`SELECT id FROM accounts WHERE owner LIKE 'c%'`, 1},
		{`SELECT id FROM accounts WHERE owner LIKE '%a%'`, 3},
		{`SELECT id FROM accounts WHERE owner LIKE '_ob'`, 1},
		{`SELECT id FROM accounts WHERE NOT (region = 'emea')`, 3},
		{`SELECT id FROM accounts WHERE balance IS NULL`, 0},
		{`SELECT id FROM accounts WHERE balance IS NOT NULL`, 5},
		{`SELECT id FROM accounts WHERE 1 = 1`, 5},
		{`SELECT id FROM accounts WHERE 2 < 1`, 0},
	}
	for _, c := range cases {
		res := h.query(c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestParamBinding(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT id FROM accounts WHERE region = $1 AND balance > $2`,
		types.NewString("apac"), types.NewFloat(60))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestProjectionExpressions(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT id * 10 AS x, upper(owner), balance / 2 FROM accounts WHERE id = 2`)
	r := res.Rows[0]
	if r[0].Int() != 20 || r[1].Str() != "BOB" || r[2].Float() != 25.25 {
		t.Fatalf("row = %v", r)
	}
	if res.Cols[0] != "x" || res.Cols[1] != "upper" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestCaseAndCoalesce(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT CASE WHEN balance > 100 THEN 'rich' ELSE 'poor' END FROM accounts WHERE id IN (1, 3) ORDER BY id`)
	if res.Rows[0][0].Str() != "poor" || res.Rows[1][0].Str() != "rich" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	res = h.query(`SELECT COALESCE(NULL, NULL, 7)`)
	if res.Rows[0][0].Int() != 7 {
		t.Fatal("coalesce")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT owner FROM accounts ORDER BY balance DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "carol" || res.Rows[1][0].Str() != "erin" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	res = h.query(`SELECT owner FROM accounts ORDER BY balance ASC LIMIT 2 OFFSET 1`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "dave" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// ORDER BY output alias and position.
	res = h.query(`SELECT owner, balance AS b FROM accounts ORDER BY b DESC LIMIT 1`)
	if res.Rows[0][0].Str() != "carol" {
		t.Fatalf("alias order: %v", rowsToStrings(res))
	}
	res = h.query(`SELECT owner, balance FROM accounts ORDER BY 2 DESC LIMIT 1`)
	if res.Rows[0][0].Str() != "carol" {
		t.Fatalf("positional order: %v", rowsToStrings(res))
	}
}

func TestLimitRequiresOrderInContractMode(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	_, err := h.tryExec(`SELECT owner FROM accounts WHERE id > 0 LIMIT 2`)
	if !errors.Is(err, ErrLimitNeedsOrder) {
		t.Fatalf("err = %v", err)
	}
	// Read-only mode allows it.
	res := h.query(`SELECT owner FROM accounts LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatal("read-only limit")
	}
}

func TestAggregates(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT COUNT(*), SUM(balance), AVG(balance), MIN(owner), MAX(balance) FROM accounts`)
	r := res.Rows[0]
	if r[0].Int() != 5 {
		t.Errorf("count = %v", r[0])
	}
	if r[1].Float() != 550.5 {
		t.Errorf("sum = %v", r[1])
	}
	if r[2].Float() != 110.1 {
		t.Errorf("avg = %v", r[2])
	}
	if r[3].Str() != "alice" {
		t.Errorf("min = %v", r[3])
	}
	if r[4].Float() != 200.0 {
		t.Errorf("max = %v", r[4])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT COUNT(*), SUM(balance) FROM accounts WHERE id > 999`)
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT region, COUNT(*) AS n, SUM(balance) AS total
		FROM accounts GROUP BY region HAVING COUNT(*) > 1 ORDER BY region`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	if res.Rows[0][0].Str() != "apac" || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Float() != 175.5 {
		t.Errorf("apac row = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "emea" || res.Rows[1][2].Float() != 300.0 {
		t.Errorf("emea row = %v", res.Rows[1])
	}
}

func TestGroupByValidation(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
	_, err := h.eng.ExecSQL(ctx, `SELECT owner, COUNT(*) FROM accounts GROUP BY region`)
	if err == nil || !strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("err = %v", err)
	}
}

func TestCountDistinct(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT COUNT(DISTINCT region) FROM accounts`)
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("distinct regions = %v", res.Rows[0][0])
	}
}

func TestDistinctRows(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT DISTINCT region FROM accounts ORDER BY region`)
	if len(res.Rows) != 3 || res.Rows[0][0].Str() != "amer" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestOrderByAggregate(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.query(`SELECT region, SUM(balance) AS total FROM accounts
		GROUP BY region ORDER BY total DESC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "emea" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestJoins(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	h.ddl(`CREATE TABLE orders (oid BIGINT PRIMARY KEY, account_id BIGINT NOT NULL, amount DOUBLE)`)
	h.ddl(`CREATE INDEX orders_account ON orders (account_id)`)
	h.exec(`INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 3, 9.0), (13, 99, 1.0)`)

	res := h.query(`SELECT a.owner, o.amount FROM accounts a
		JOIN orders o ON o.account_id = a.id ORDER BY o.amount`)
	if len(res.Rows) != 3 {
		t.Fatalf("inner join rows = %v", rowsToStrings(res))
	}
	if res.Rows[0][0].Str() != "alice" || res.Rows[2][1].Float() != 9.0 {
		t.Errorf("rows = %v", rowsToStrings(res))
	}

	// LEFT JOIN null-extends accounts without orders.
	res = h.query(`SELECT a.owner, o.oid FROM accounts a
		LEFT JOIN orders o ON o.account_id = a.id WHERE o.oid IS NULL ORDER BY a.owner`)
	if len(res.Rows) != 3 { // bob, dave, erin
		t.Fatalf("left join rows = %v", rowsToStrings(res))
	}

	// Join + aggregate (the complex-join contract shape).
	res = h.query(`SELECT a.region, SUM(o.amount) AS total FROM accounts a
		JOIN orders o ON o.account_id = a.id GROUP BY a.region ORDER BY a.region`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "emea" || res.Rows[0][1].Float() != 21.0 {
		t.Fatalf("join agg = %v", rowsToStrings(res))
	}
}

func TestCommaJoin(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	h.ddl(`CREATE TABLE regions (name TEXT PRIMARY KEY, tier BIGINT)`)
	h.exec(`INSERT INTO regions VALUES ('emea', 1), ('apac', 2), ('amer', 3)`)
	res := h.query(`SELECT a.owner, r.tier FROM accounts a, regions r
		WHERE a.region = r.name AND r.tier = 1 ORDER BY a.owner`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "alice" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestUpdate(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.exec(`UPDATE accounts SET balance = balance + 10 WHERE region = 'emea'`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	q := h.query(`SELECT balance FROM accounts WHERE id = 1`)
	if q.Rows[0][0].Float() != 110.0 {
		t.Fatalf("balance = %v", q.Rows[0][0])
	}
	// Old version still visible at old height.
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block - 1}
	old, err := h.eng.ExecSQL(ctx, `SELECT balance FROM accounts WHERE id = 1`)
	if err != nil || old.Rows[0][0].Float() != 100.0 {
		t.Fatalf("historic read = %v %v", old, err)
	}
}

func TestDelete(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	res := h.exec(`DELETE FROM accounts WHERE balance < 100`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	q := h.query(`SELECT COUNT(*) FROM accounts`)
	if q.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %v", q.Rows[0][0])
	}
}

func TestUpdatePrimaryKey(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	h.exec(`UPDATE accounts SET id = 100 WHERE id = 1`)
	q := h.query(`SELECT owner FROM accounts WHERE id = 100`)
	if len(q.Rows) != 1 || q.Rows[0][0].Str() != "alice" {
		t.Fatalf("rows = %v", rowsToStrings(q))
	}
	if len(h.query(`SELECT id FROM accounts WHERE id = 1`).Rows) != 0 {
		t.Fatal("old pk still visible")
	}
}

func TestInsertColumnSubsetAndDefaults(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE items (id BIGINT PRIMARY KEY, name TEXT, qty BIGINT DEFAULT 1)`)
	h.exec(`INSERT INTO items (id, name) VALUES (1, 'x')`)
	q := h.query(`SELECT qty, name FROM items WHERE id = 1`)
	if q.Rows[0][0].Int() != 1 {
		t.Fatalf("default qty = %v", q.Rows[0][0])
	}
	h.exec(`INSERT INTO items (id) VALUES (2)`)
	q = h.query(`SELECT name FROM items WHERE id = 2`)
	if !q.Rows[0][0].IsNull() {
		t.Fatal("missing column without default should be NULL")
	}
}

func TestUniqueColumnConstraint(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE users (id BIGINT PRIMARY KEY, email TEXT UNIQUE)`)
	h.exec(`INSERT INTO users VALUES (1, 'a@x.com')`)
	_, err := h.tryExec(`INSERT INTO users VALUES (2, 'a@x.com')`)
	if !errors.Is(err, storage.ErrUniqueViolation) {
		t.Fatalf("err = %v", err)
	}
}

// TestCreateUniqueIndexOverDuplicatesRefused: CREATE UNIQUE INDEX over a
// column that already holds a value twice fails, as in PostgreSQL, and
// leaves no index behind — the column still takes a third copy.
func TestCreateUniqueIndexOverDuplicatesRefused(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE users (id BIGINT PRIMARY KEY, email TEXT)`)
	h.exec(`INSERT INTO users VALUES (1, 'a@x.com'), (2, 'a@x.com')`)
	ctx := &ExecCtx{Mode: ModeSystem, Height: h.block, Rec: storage.NewTxRecord(h.st.BeginTx(), h.block)}
	if _, err := h.eng.ExecSQL(ctx, `CREATE UNIQUE INDEX users_email ON users (email)`); !errors.Is(err, storage.ErrUniqueViolation) {
		t.Fatalf("err = %v, want ErrUniqueViolation", err)
	}
	h.exec(`INSERT INTO users VALUES (3, 'a@x.com')`)
	if res := h.query(`SELECT COUNT(*) FROM users WHERE email = 'a@x.com'`); res.Rows[0][0].Int() != 3 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestRequireIndexMode(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	run := func(sql string) error {
		rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
		ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec, RequireIndex: true}
		_, err := h.eng.ExecSQL(ctx, sql)
		h.st.AbortTx(rec)
		return err
	}
	// balance has no index → rejected.
	if err := run(`SELECT id FROM accounts WHERE balance > 10`); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("unindexed predicate err = %v", err)
	}
	// region is indexed → fine.
	if err := run(`SELECT id FROM accounts WHERE region = 'emea'`); err != nil {
		t.Fatalf("indexed predicate err = %v", err)
	}
	// Full scans rejected.
	if err := run(`SELECT id FROM accounts`); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("full scan err = %v", err)
	}
	// Blind update rejected.
	if err := run(`UPDATE accounts SET balance = 0`); !errors.Is(err, ErrBlindUpdate) {
		t.Fatalf("blind update err = %v", err)
	}
	// Unindexed update predicate rejected.
	if err := run(`UPDATE accounts SET balance = 0 WHERE balance > 1`); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("unindexed update err = %v", err)
	}
	// Indexed update fine.
	if err := run(`UPDATE accounts SET balance = 0 WHERE id = 1`); err != nil {
		t.Fatalf("indexed update err = %v", err)
	}
}

func TestReadTrackingPopulatesRecord(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec}
	if _, err := h.eng.ExecSQL(ctx, `SELECT id FROM accounts WHERE region = 'emea'`); err != nil {
		t.Fatal(err)
	}
	if len(rec.ReadRows) != 2 {
		t.Errorf("ReadRows = %d, want 2", len(rec.ReadRows))
	}
	if len(rec.ReadRanges) != 1 || rec.ReadRanges[0].Index != "accounts_region" {
		t.Errorf("ReadRanges = %+v", rec.ReadRanges)
	}
	h.st.AbortTx(rec)

	// Read-only contexts record nothing.
	ro := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
	if _, err := h.eng.ExecSQL(ro, `SELECT id FROM accounts`); err != nil {
		t.Fatal(err)
	}
}

func TestProvenanceQuery(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	h.exec(`UPDATE accounts SET balance = 999 WHERE id = 1`)

	// Normal query sees one version.
	if n := len(h.query(`SELECT id FROM accounts WHERE id = 1`).Rows); n != 1 {
		t.Fatalf("live rows = %d", n)
	}
	// Provenance sees both, with system columns.
	res := h.query(`SELECT balance, creator_block, deleter_block FROM accounts PROVENANCE WHERE id = 1 ORDER BY creator_block`)
	if len(res.Rows) != 2 {
		t.Fatalf("provenance rows = %v", rowsToStrings(res))
	}
	first, second := res.Rows[0], res.Rows[1]
	if first[0].Float() != 100.0 || first[2].IsNull() == true && second[2].IsNull() == false {
		// first version must carry a deleter block, second must not
	}
	if first[2].IsNull() {
		t.Errorf("old version should have deleter_block: %v", first)
	}
	if !second[2].IsNull() {
		t.Errorf("new version should have no deleter_block: %v", second)
	}
	// System columns rejected outside provenance.
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
	if _, err := h.eng.ExecSQL(ctx, `SELECT id FROM accounts WHERE xmax = 1`); err == nil {
		t.Fatal("xmax outside provenance should fail")
	}
}

func TestProvenanceRejectedInContract(t *testing.T) {
	h := newHarness(t)
	h.seedAccounts()
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec}
	_, err := h.eng.ExecSQL(ctx, `SELECT id FROM accounts PROVENANCE WHERE id = 1`)
	h.st.AbortTx(rec)
	if err == nil {
		t.Fatal("provenance inside contract should fail")
	}
}

func TestSelectNoFrom(t *testing.T) {
	h := newHarness(t)
	res := h.query(`SELECT 1 + 2, 'x' || 'y', CAST('42' AS BIGINT)`)
	r := res.Rows[0]
	if r[0].Int() != 3 || r[1].Str() != "xy" || r[2].Int() != 42 {
		t.Fatalf("row = %v", r)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	h := newHarness(t)
	cases := []struct {
		sql  string
		want types.Value
	}{
		{`SELECT 7 / 2`, types.NewInt(3)},
		{`SELECT 7.0 / 2`, types.NewFloat(3.5)},
		{`SELECT 7 % 3`, types.NewInt(1)},
		{`SELECT -(-5)`, types.NewInt(5)},
		{`SELECT 2 * 3 + 1`, types.NewInt(7)},
		{`SELECT ABS(-4.5)`, types.NewFloat(4.5)},
		{`SELECT LENGTH('hello')`, types.NewInt(5)},
		{`SELECT SUBSTR('hello', 2, 3)`, types.NewString("ell")},
		{`SELECT GREATEST(1, 9, 4)`, types.NewInt(9)},
		{`SELECT LEAST(3, NULL, 2)`, types.NewInt(2)},
		{`SELECT FLOOR(2.7)`, types.NewFloat(2)},
		{`SELECT CEIL(2.1)`, types.NewFloat(3)},
		{`SELECT ROUND(2.5)`, types.NewFloat(3)},
		{`SELECT CONCAT('a', 1, 'b')`, types.NewString("a1b")},
	}
	for _, c := range cases {
		res := h.query(c.sql)
		if types.Compare(res.Rows[0][0], c.want) != 0 {
			t.Errorf("%s = %v, want %v", c.sql, res.Rows[0][0], c.want)
		}
	}
	ctx := &ExecCtx{Mode: ModeReadOnly}
	if _, err := h.eng.ExecSQL(ctx, `SELECT 1 / 0`); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("div by zero err = %v", err)
	}
	if _, err := h.eng.ExecSQL(ctx, `SELECT RANDOM()`); err == nil {
		t.Error("RANDOM must not exist (determinism)")
	}
	if _, err := h.eng.ExecSQL(ctx, `SELECT NOW()`); err == nil {
		t.Error("NOW must not exist (determinism)")
	}
}

func TestNullSemantics(t *testing.T) {
	h := newHarness(t)
	cases := []struct {
		sql    string
		isNull bool
	}{
		{`SELECT NULL + 1`, true},
		{`SELECT NULL = NULL`, true},
		{`SELECT NULL AND FALSE`, false}, // false
		{`SELECT NULL OR TRUE`, false},   // true
		{`SELECT NULL AND TRUE`, true},
		{`SELECT NOT NULL IS NULL`, false},
	}
	for _, c := range cases {
		res := h.query(c.sql)
		if res.Rows[0][0].IsNull() != c.isNull {
			t.Errorf("%s: null=%v, want %v", c.sql, res.Rows[0][0].IsNull(), c.isNull)
		}
	}
	res := h.query(`SELECT NULL AND FALSE`)
	if res.Rows[0][0].Bool() != false {
		t.Error("NULL AND FALSE should be false")
	}
	res = h.query(`SELECT NULL OR TRUE`)
	if res.Rows[0][0].Bool() != true {
		t.Error("NULL OR TRUE should be true")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t1 (id BIGINT PRIMARY KEY, v TEXT)`)
	h.ddl(`CREATE TABLE t2 (id BIGINT PRIMARY KEY, v TEXT)`)
	h.exec(`INSERT INTO t1 VALUES (1, 'a')`)
	h.exec(`INSERT INTO t2 VALUES (1, 'b')`)
	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
	_, err := h.eng.ExecSQL(ctx, `SELECT v FROM t1 JOIN t2 ON t1.id = t2.id`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestDDLInsideReadOnlyFails(t *testing.T) {
	h := newHarness(t)
	ctx := &ExecCtx{Mode: ModeReadOnly}
	if _, err := h.eng.ExecSQL(ctx, `CREATE TABLE x (a BIGINT PRIMARY KEY)`); !errors.Is(err, ErrReadOnlyCtx) {
		t.Fatalf("err = %v", err)
	}
	if _, err := h.eng.ExecSQL(ctx, `INSERT INTO x VALUES (1)`); !errors.Is(err, ErrReadOnlyCtx) {
		t.Fatalf("err = %v", err)
	}
}

// Contracts must never alter the catalog (§3.7): schema changes ride in
// genesis SQL or the node-private schema. The disk backend's WAL frame
// stamping additionally relies on DDL staying out of block processing.
func TestDDLInsideContractFails(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE x (a BIGINT PRIMARY KEY)`)
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec}
	for _, sql := range []string{
		`CREATE TABLE y (a BIGINT PRIMARY KEY)`,
		`CREATE INDEX x_a ON x (a)`,
		`DROP TABLE x`,
	} {
		if _, err := h.eng.ExecSQL(ctx, sql); !errors.Is(err, ErrDDLInContract) {
			t.Fatalf("%s: err = %v, want ErrDDLInContract", sql, err)
		}
	}
	h.st.AbortTx(rec)
}

func TestCompositeIndexRangeScan(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE ev (id BIGINT PRIMARY KEY, grp TEXT, seq BIGINT, val DOUBLE)`)
	h.ddl(`CREATE INDEX ev_grp_seq ON ev (grp, seq)`)
	h.exec(`INSERT INTO ev VALUES
		(1, 'a', 1, 1.0), (2, 'a', 2, 2.0), (3, 'a', 3, 3.0),
		(4, 'b', 1, 4.0), (5, 'b', 2, 5.0)`)
	res := h.query(`SELECT id FROM ev WHERE grp = 'a' AND seq >= 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 3 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// Equality on full composite.
	res = h.query(`SELECT id FROM ev WHERE grp = 'b' AND seq = 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// RequireIndex accepts the composite prefix.
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec, RequireIndex: true}
	if _, err := h.eng.ExecSQL(ctx, `SELECT id FROM ev WHERE grp = 'a'`); err != nil {
		t.Fatalf("prefix scan err = %v", err)
	}
	h.st.AbortTx(rec)
}

func TestComplexGroupContractShape(t *testing.T) {
	// The paper's complex-group contract: aggregate over subgroups,
	// order by the aggregate, keep the max, write it elsewhere.
	h := newHarness(t)
	h.ddl(`CREATE TABLE sales (id BIGINT PRIMARY KEY, grp TEXT, sub TEXT, amt DOUBLE)`)
	h.ddl(`CREATE INDEX sales_grp ON sales (grp)`)
	h.ddl(`CREATE TABLE winners (grp TEXT PRIMARY KEY, sub TEXT, total DOUBLE)`)
	h.exec(`INSERT INTO sales VALUES
		(1, 'g1', 'a', 10), (2, 'g1', 'a', 15), (3, 'g1', 'b', 20),
		(4, 'g1', 'c', 5), (5, 'g2', 'a', 1)`)
	res := h.query(`SELECT sub, SUM(amt) AS total FROM sales WHERE grp = 'g1'
		GROUP BY sub ORDER BY total DESC, sub ASC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "a" || res.Rows[0][1].Float() != 25 {
		t.Fatalf("winner = %v", rowsToStrings(res))
	}
}

// TestContractCannotReadSysLedger: the ledger table is node bookkeeping —
// it carries node-local xids and, with the pipelined block processor, its
// rows are sealed asynchronously behind the committed height — so a
// contract reading it would diverge across replicas. The engine must
// reject the read deterministically (read-only queries outside contracts
// stay allowed).
func TestContractCannotReadSysLedger(t *testing.T) {
	h := newHarness(t)
	ctx := &ExecCtx{Mode: ModeSystem, Height: 0, SystemDDL: true,
		Rec: storage.NewTxRecord(h.st.BeginTx(), 0)}
	if _, err := h.eng.ExecSQL(ctx, `CREATE TABLE sys_ledger (txid TEXT PRIMARY KEY, block BIGINT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := h.tryExec(`SELECT txid FROM sys_ledger`); !errors.Is(err, ErrSchemaClass) {
		t.Fatalf("contract read of sys_ledger: err = %v, want ErrSchemaClass", err)
	}
	ro := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
	if _, err := h.eng.ExecSQL(ro, `SELECT txid FROM sys_ledger`); err != nil {
		t.Fatalf("read-only query of sys_ledger must stay allowed: %v", err)
	}
}
