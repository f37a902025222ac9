package sqlparser

import (
	"strings"
	"testing"

	"bcrdb/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("ParseStatement(%q): %v", src, err)
	}
	return s
}

func mustFail(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := ParseStatement(src)
	if err == nil {
		t.Fatalf("ParseStatement(%q) unexpectedly succeeded", src)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("ParseStatement(%q) error = %q, want substring %q", src, err, wantSub)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := tokenize("SELECT a, 'it''s', 1.5e2, $2 FROM t -- comment\n/* block */ WHERE x<>1")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "150", "1.5e2", ",", "$2", "FROM", "t", "WHERE", "x", "<>", "1", ""}
	_ = want
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Errorf("tok0 = %v %q", kinds[0], texts[0])
	}
	if texts[3] != "it's" || kinds[3] != TokString {
		t.Errorf("string tok = %v %q", kinds[3], texts[3])
	}
	if texts[5] != "1.5e2" || kinds[5] != TokFloat {
		t.Errorf("float tok = %v %q", kinds[5], texts[5])
	}
	if texts[7] != "$2" || kinds[7] != TokParam {
		t.Errorf("param tok = %v %q", kinds[7], texts[7])
	}
	if texts[12] != "<>" {
		t.Errorf("op tok = %q", texts[12])
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := tokenize("'unterminated"); err == nil {
		t.Error("expected error for unterminated string")
	}
	if _, err := tokenize("a @ b"); err == nil {
		t.Error("expected error for bad character")
	}
	if _, err := tokenize("$x"); err == nil {
		t.Error("expected error for bad parameter")
	}
}

func TestLexerIdentCaseFolding(t *testing.T) {
	toks, _ := tokenize("MyTable SELECT sElEcT")
	if toks[0].Text != "mytable" || toks[0].Kind != TokIdent {
		t.Errorf("ident fold = %q", toks[0].Text)
	}
	if toks[1].Text != "SELECT" || toks[2].Text != "SELECT" {
		t.Error("keywords should fold to upper")
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE accounts (
		id BIGINT PRIMARY KEY,
		owner TEXT NOT NULL,
		balance DOUBLE DEFAULT 0,
		active BOOLEAN,
		blob BYTEA
	)`)
	ct := s.(*CreateTable)
	if ct.Name != "accounts" || len(ct.Columns) != 5 {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Columns[0].Type != types.KindInt || !ct.Columns[0].PrimaryKey || !ct.Columns[0].NotNull {
		t.Errorf("id col = %+v", ct.Columns[0])
	}
	if ct.Columns[1].Type != types.KindString || !ct.Columns[1].NotNull {
		t.Errorf("owner col = %+v", ct.Columns[1])
	}
	if ct.Columns[2].Default == nil {
		t.Error("balance default missing")
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", ct.PrimaryKey)
	}
}

func TestParseCreateTableCompositePK(t *testing.T) {
	s := mustParse(t, `CREATE TABLE t (a BIGINT, b TEXT, c DOUBLE, PRIMARY KEY (a, b))`)
	ct := s.(*CreateTable)
	if len(ct.PrimaryKey) != 2 || ct.PrimaryKey[0] != "a" || ct.PrimaryKey[1] != "b" {
		t.Errorf("pk = %v", ct.PrimaryKey)
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	s := mustParse(t, `CREATE TABLE IF NOT EXISTS t (a BIGINT PRIMARY KEY)`)
	if !s.(*CreateTable).IfNotExists {
		t.Error("IfNotExists not set")
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := mustParse(t, `CREATE INDEX idx_owner ON accounts (owner, balance)`)
	ci := s.(*CreateIndex)
	if ci.Name != "idx_owner" || ci.Table != "accounts" || len(ci.Columns) != 2 || ci.Unique {
		t.Errorf("ci = %+v", ci)
	}
	s = mustParse(t, `CREATE UNIQUE INDEX u ON t (a)`)
	if !s.(*CreateIndex).Unique {
		t.Error("unique index not flagged")
	}
}

func TestParseDropTable(t *testing.T) {
	s := mustParse(t, `DROP TABLE foo`)
	if s.(*DropTable).Name != "foo" {
		t.Error("drop name")
	}
	s = mustParse(t, `DROP TABLE IF EXISTS foo`)
	if !s.(*DropTable).IfExists {
		t.Error("IfExists not set")
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), ($1, $2)`)
	ins := s.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	if p, ok := ins.Rows[1][0].(*Param); !ok || p.N != 1 {
		t.Errorf("row2 col1 = %#v", ins.Rows[1][0])
	}
	s = mustParse(t, `INSERT INTO t VALUES (1, 2)`)
	if len(s.(*Insert).Columns) != 0 {
		t.Error("column-less insert should have empty Columns")
	}
}

func TestParseUpdate(t *testing.T) {
	s := mustParse(t, `UPDATE t SET a = a + 1, b = 'z' WHERE id = $1 AND c > 3`)
	up := s.(*Update)
	if up.Table != "t" || len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("up = %+v", up)
	}
	if up.Set[0].Column != "a" {
		t.Error("set col")
	}
	s = mustParse(t, `UPDATE t SET a = 1`)
	if s.(*Update).Where != nil {
		t.Error("blind update should have nil Where")
	}
}

func TestParseDelete(t *testing.T) {
	s := mustParse(t, `DELETE FROM t WHERE id IN (1, 2, 3)`)
	del := s.(*Delete)
	if del.Table != "t" {
		t.Error("table")
	}
	in := del.Where.(*InList)
	if len(in.List) != 3 || in.Not {
		t.Errorf("in = %+v", in)
	}
}

func TestParseSelectFull(t *testing.T) {
	s := mustParse(t, `
		SELECT o.region AS r, SUM(oi.qty * p.price) total, COUNT(*)
		FROM orders o
		JOIN order_items oi ON o.id = oi.order_id
		LEFT JOIN products p ON oi.product_id = p.id
		WHERE o.region = $1 AND o.amount BETWEEN 10 AND 100
		GROUP BY o.region
		HAVING SUM(oi.qty) > 5
		ORDER BY total DESC, r ASC
		LIMIT 10 OFFSET 2`)
	sel := s.(*Select)
	if len(sel.Items) != 3 || sel.Items[0].Alias != "r" || sel.Items[1].Alias != "total" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if sel.From.Table != "orders" || sel.From.Alias != "o" {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 2 || sel.Joins[0].Kind != "INNER" || sel.Joins[1].Kind != "LEFT" {
		t.Errorf("joins = %+v", sel.Joins)
	}
	if sel.Where == nil || len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("where/group/having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset")
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, `SELECT * FROM t`)
	if !s.(*Select).Items[0].Star {
		t.Error("star item")
	}
	s = mustParse(t, `SELECT t.* FROM t`)
	item := s.(*Select).Items[0]
	if !item.Star || item.Table != "t" {
		t.Errorf("t.* item = %+v", item)
	}
}

func TestParseSelectDistinctNoFrom(t *testing.T) {
	s := mustParse(t, `SELECT DISTINCT 1 + 2 * 3`)
	sel := s.(*Select)
	if !sel.Distinct || sel.From != nil {
		t.Error("distinct/from")
	}
	b := sel.Items[0].Expr.(*Binary)
	if b.Op != "+" {
		t.Error("precedence: * should bind tighter than +")
	}
}

func TestParseCommaJoin(t *testing.T) {
	s := mustParse(t, `SELECT a FROM t1, t2 WHERE t1.id = t2.id`)
	sel := s.(*Select)
	if len(sel.Joins) != 1 || sel.Joins[0].Kind != "INNER" {
		t.Errorf("joins = %+v", sel.Joins)
	}
}

func TestParseProvenance(t *testing.T) {
	s := mustParse(t, `SELECT * FROM invoices PROVENANCE WHERE xmax = 5`)
	if !s.(*Select).Provenance {
		t.Error("provenance flag")
	}
}

func TestParseExpressionForms(t *testing.T) {
	e, err := ParseExprString(`CASE WHEN a > 1 THEN 'hi' ELSE lower(b) || '!' END`)
	if err != nil {
		t.Fatal(err)
	}
	ce := e.(*CaseExpr)
	if len(ce.Whens) != 1 || ce.Else == nil {
		t.Errorf("case = %+v", ce)
	}

	e, err = ParseExprString(`CAST(a AS DOUBLE) + CAST('1' AS TEXT)`)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Binary).L.(*Cast).To != types.KindFloat {
		t.Error("cast kind")
	}

	e, err = ParseExprString(`x IS NOT NULL AND y IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if !e.(*Binary).L.(*IsNull).Not {
		t.Error("is not null")
	}

	e, err = ParseExprString(`a NOT IN (1,2) AND b NOT BETWEEN 1 AND 2 AND c NOT LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	and1 := e.(*Binary)
	if !and1.R.(*Like).Not {
		t.Error("not like")
	}

	e, err = ParseExprString(`-5`)
	if err != nil || e.(*Literal).Val.Int() != -5 {
		t.Error("negative literal folding")
	}
	e, err = ParseExprString(`-2.5`)
	if err != nil || e.(*Literal).Val.Float() != -2.5 {
		t.Error("negative float folding")
	}

	e, err = ParseExprString(`COUNT(DISTINCT x)`)
	if err != nil || !e.(*FuncCall).Distinct {
		t.Error("count distinct")
	}
	e, err = ParseExprString(`COUNT(*)`)
	if err != nil || !e.(*FuncCall).Star {
		t.Error("count star")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e, err := ParseExprString(`a OR b AND NOT c = 1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*Binary)
	if or.Op != "OR" {
		t.Fatal("top should be OR")
	}
	and := or.R.(*Binary)
	if and.Op != "AND" {
		t.Fatal("right of OR should be AND")
	}
	not := and.R.(*Unary)
	if not.Op != "NOT" {
		t.Fatal("right of AND should be NOT")
	}
	cmp := not.X.(*Binary)
	if cmp.Op != "=" {
		t.Fatal("NOT should wrap comparison")
	}
	add := cmp.R.(*Binary)
	if add.Op != "+" {
		t.Fatal("right of = should be +")
	}
	if add.R.(*Binary).Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
}

func TestParseStatements(t *testing.T) {
	stmts, err := ParseStatements(`
		CREATE TABLE t (a BIGINT PRIMARY KEY);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	mustFail(t, `SELECT`, "")
	mustFail(t, `SELECT a FROM`, "table name")
	mustFail(t, `INSERT t VALUES (1)`, "INTO")
	mustFail(t, `CREATE TABLE t (a WIBBLE)`, "")
	mustFail(t, `UPDATE t WHERE a = 1`, "SET")
	mustFail(t, `SELECT a FROM t WHERE`, "")
	mustFail(t, `SELECT a b c FROM t`, "")
	mustFail(t, `DELETE t`, "FROM")
	mustFail(t, `CASE`, "")
	mustFail(t, `SELECT CASE END`, "WHEN")
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := ParseStatement("SELECT a\nFROM !t")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(se.Error(), "line 2") {
		t.Errorf("error should carry line info: %v", se)
	}
}

func TestWalkAndRewrite(t *testing.T) {
	e, _ := ParseExprString(`a + SUM(b * 2) - CASE WHEN c THEN d ELSE e END`)
	count := 0
	WalkExpr(e, func(Expr) { count++ })
	if count < 8 {
		t.Errorf("walk visited only %d nodes", count)
	}
	if !HasAggregate(e) {
		t.Error("HasAggregate should find SUM")
	}
	noAgg, _ := ParseExprString(`a + b`)
	if HasAggregate(noAgg) {
		t.Error("HasAggregate false positive")
	}

	// Rewrite params into literals.
	pe, _ := ParseExprString(`$1 + x`)
	out := RewriteExpr(pe, func(x Expr) Expr {
		if _, ok := x.(*Param); ok {
			return &Literal{Val: types.NewInt(42)}
		}
		return x
	})
	b := out.(*Binary)
	if b.L.(*Literal).Val.Int() != 42 {
		t.Error("rewrite did not replace param")
	}
	// Original untouched.
	if _, ok := pe.(*Binary).L.(*Param); !ok {
		t.Error("rewrite mutated the original")
	}
}

func TestStatementTables(t *testing.T) {
	s := mustParse(t, `SELECT a FROM t1 JOIN t2 ON t1.x = t2.x`)
	tabs := StatementTables(s)
	if len(tabs) != 2 || tabs[0] != "t1" || tabs[1] != "t2" {
		t.Errorf("tables = %v", tabs)
	}
	if !IsReadOnly(s) {
		t.Error("select is read-only")
	}
	if IsReadOnly(mustParse(t, `DELETE FROM t`)) {
		t.Error("delete is not read-only")
	}
}

func TestVarcharAndDoublePrecision(t *testing.T) {
	s := mustParse(t, `CREATE TABLE t (a VARCHAR(64), b DOUBLE PRECISION, PRIMARY KEY (a))`)
	ct := s.(*CreateTable)
	if ct.Columns[0].Type != types.KindString || ct.Columns[1].Type != types.KindFloat {
		t.Errorf("types = %+v", ct.Columns)
	}
}
