package proc

import (
	"errors"
	"strings"
	"testing"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// These tests exercise the contract language itself: control flow,
// variable scoping, coercions and determinism guards.

func TestNestedIfElsif(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION grade(score BIGINT) RETURNS TEXT AS $$
	BEGIN
		IF score >= 90 THEN
			IF score >= 97 THEN
				RETURN 'A+';
			END IF;
			RETURN 'A';
		ELSIF score >= 80 THEN
			RETURN 'B';
		ELSIF score >= 70 THEN
			RETURN 'C';
		ELSE
			RETURN 'F';
		END IF;
	END;
	$$`)
	cases := map[int64]string{99: "A+", 91: "A", 85: "B", 75: "C", 10: "F"}
	for score, want := range cases {
		v := h.mustCall("alice", "grade", types.NewInt(score))
		if v.Str() != want {
			t.Errorf("grade(%d) = %v, want %s", score, v, want)
		}
	}
}

func TestDeclareInitFromParams(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION poly(x BIGINT) RETURNS BIGINT AS $$
	DECLARE
		sq BIGINT := x * x;
		cu BIGINT := sq * x;
	BEGIN
		RETURN cu + sq + x;
	END;
	$$`)
	if v := h.mustCall("alice", "poly", types.NewInt(3)); v.Int() != 27+9+3 {
		t.Fatalf("poly(3) = %v", v)
	}
}

func TestReturnCoercion(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION half(x BIGINT) RETURNS DOUBLE AS $$
	BEGIN
		RETURN x;
	END;
	$$`)
	v := h.mustCall("alice", "half", types.NewInt(4))
	if v.Kind() != types.KindFloat || v.Float() != 4.0 {
		t.Fatalf("coerced return = %v (%s)", v, v.Kind())
	}
}

func TestSelectIntoMultipleColumns(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE pts (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE)`)
	h.systemExec(`INSERT INTO pts VALUES (1, 3.0, 4.0)`)
	h.deploy(`CREATE FUNCTION dist2(p_id BIGINT) RETURNS DOUBLE AS $$
	DECLARE
		vx DOUBLE;
		vy DOUBLE;
	BEGIN
		SELECT x, y INTO vx, vy FROM pts WHERE id = p_id;
		RETURN vx * vx + vy * vy;
	END;
	$$`)
	if v := h.mustCall("alice", "dist2", types.NewInt(1)); v.Float() != 25.0 {
		t.Fatalf("dist2 = %v", v)
	}
	// Zero rows → NULL variables.
	h.deploy(`CREATE FUNCTION missing_is_null(p_id BIGINT) RETURNS BIGINT AS $$
	DECLARE
		vx DOUBLE;
	BEGIN
		SELECT x INTO vx FROM pts WHERE id = p_id;
		IF vx IS NULL THEN
			RETURN 1;
		END IF;
		RETURN 0;
	END;
	$$`)
	if v := h.mustCall("alice", "missing_is_null", types.NewInt(999)); v.Int() != 1 {
		t.Fatalf("missing row should yield NULL, got %v", v)
	}
}

func TestLoopIterationCap(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION forever() RETURNS VOID AS $$
	DECLARE
		i BIGINT := 0;
	BEGIN
		WHILE TRUE LOOP
			i := i + 1;
		END LOOP;
	END;
	$$`)
	_, err := h.call("alice", "forever")
	if err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Fatalf("err = %v", err)
	}
}

func TestExitAndContinueInNestedLoops(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION count_special(n BIGINT) RETURNS BIGINT AS $$
	DECLARE
		i BIGINT := 0;
		acc BIGINT := 0;
	BEGIN
		WHILE i < n LOOP
			i := i + 1;
			IF i % 3 = 0 THEN
				CONTINUE;
			END IF;
			IF i > 7 THEN
				EXIT;
			END IF;
			acc := acc + 1;
		END LOOP;
		RETURN acc;
	END;
	$$`)
	// i: 1,2 count; 3 skipped; 4,5 count; 6 skipped; 7 counts; 8 exits → 5
	if v := h.mustCall("alice", "count_special", types.NewInt(100)); v.Int() != 5 {
		t.Fatalf("count_special = %v", v)
	}
}

func TestContractDoingDML(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE journal (id BIGINT PRIMARY KEY, delta DOUBLE)`)
	h.deploy(`CREATE FUNCTION book(p_id BIGINT, p_d DOUBLE) RETURNS BIGINT AS $$
	DECLARE
		n BIGINT;
	BEGIN
		INSERT INTO journal VALUES (p_id, p_d);
		UPDATE journal SET delta = delta * 2 WHERE id = p_id;
		SELECT COUNT(*) INTO n FROM journal;
		RETURN n;
	END;
	$$`)
	if v := h.mustCall("alice", "book", types.NewInt(1), types.NewFloat(2.5)); v.Int() != 1 {
		t.Fatalf("book = %v", v)
	}
	res := h.query(`SELECT delta FROM journal WHERE id = 1`)
	if res.Rows[0][0].Float() != 5.0 {
		t.Fatalf("delta = %v", res.Rows[0][0])
	}
}

func TestRaiseMessageComposition(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION fail_with(p BIGINT) RETURNS VOID AS $$
	BEGIN
		RAISE EXCEPTION 'bad value: ' || p;
	END;
	$$`)
	_, err := h.call("alice", "fail_with", types.NewInt(42))
	if err == nil || !strings.Contains(err.Error(), "bad value: 42") {
		t.Fatalf("err = %v", err)
	}
}

func TestAssignToUndeclaredFails(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION oops() RETURNS VOID AS $$
	BEGIN
		ghost := 1;
	END;
	$$`)
	_, err := h.call("alice", "oops")
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("err = %v", err)
	}
}

func TestIntoUndeclaredFails(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE t2 (id BIGINT PRIMARY KEY)`)
	h.deploy(`CREATE FUNCTION oops2() RETURNS VOID AS $$
	BEGIN
		SELECT id INTO ghost FROM t2 WHERE id = 1;
	END;
	$$`)
	_, err := h.call("alice", "oops2")
	if err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("err = %v", err)
	}
}

func TestContractSeesOwnWrites(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE acc2 (id BIGINT PRIMARY KEY, v BIGINT)`)
	h.deploy(`CREATE FUNCTION rmw() RETURNS BIGINT AS $$
	DECLARE
		x BIGINT;
	BEGIN
		INSERT INTO acc2 VALUES (1, 10);
		UPDATE acc2 SET v = v + 5 WHERE id = 1;
		SELECT v INTO x FROM acc2 WHERE id = 1;
		RETURN x;
	END;
	$$`)
	if v := h.mustCall("alice", "rmw"); v.Int() != 15 {
		t.Fatalf("rmw = %v (read-your-writes broken)", v)
	}
}

// TestContractSeesOwnDeletes: a row version the transaction itself
// superseded — by DELETE, or by the delete half of its UPDATE — is gone
// for the rest of the transaction, so a transfer to the same account
// commits with the balance unchanged.
func TestContractSeesOwnDeletes(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance DOUBLE)`)
	h.systemExec(`CREATE TABLE d (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT)`)
	h.systemExec(`INSERT INTO accounts VALUES (1, 100)`)
	h.systemExec(`INSERT INTO d VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30)`)
	h.deploy(`CREATE FUNCTION transfer(src BIGINT, dst BIGINT, amt DOUBLE) RETURNS VOID AS $$
	BEGIN
		UPDATE accounts SET balance = balance - amt WHERE id = src;
		UPDATE accounts SET balance = balance + amt WHERE id = dst;
	END; $$`)
	h.deploy(`CREATE FUNCTION delete_count(g BIGINT) RETURNS BIGINT AS $$
	DECLARE n BIGINT;
	BEGIN
		DELETE FROM d WHERE grp = g;
		SELECT COUNT(*) INTO n FROM d WHERE id > 0;
		RETURN n;
	END; $$`)
	h.deploy(`CREATE FUNCTION update_select(p BIGINT) RETURNS TEXT AS $$
	DECLARE n BIGINT; s BIGINT;
	BEGIN
		UPDATE d SET v = v + 1 WHERE id = p;
		SELECT COUNT(*), SUM(v) INTO n, s FROM d WHERE id = p;
		RETURN n || ' ' || s;
	END; $$`)
	i := types.NewInt
	for _, c := range []struct {
		name string
		args []types.Value
		want string
	}{
		{"transfer", []types.Value{i(1), i(1), types.NewFloat(25)}, "NULL"},
		{"update_select", []types.Value{i(3)}, "1 31"},
		{"delete_count", []types.Value{i(1)}, "1"},
	} {
		v, err := h.call("alice", c.name, c.args...)
		if err != nil || v.String() != c.want {
			t.Errorf("%s%v = %v, %v; want %s", c.name, c.args, v, err, c.want)
		}
	}
	if res := h.query(`SELECT balance FROM accounts WHERE id = 1`); len(res.Rows) != 1 || res.Rows[0][0].Float() != 100 {
		t.Errorf("balance after self-transfer = %v, want one row of 100", res.Rows)
	}
}

// TestContractFrontEnd pins what parsing contracts on the SQL parser's
// own cursor, in one token stream, changed (ADR-0003 "One front end"): a
// CASE expression is a condition like any other, a contract's types are
// CREATE TABLE's types with CREATE TABLE's message, and a parse error
// names its line and column in the CREATE FUNCTION source. want is the
// call's value for a source that deploys, else a piece of its parse error.
func TestContractFrontEnd(t *testing.T) {
	h := newProcHarness(t)
	_, tableErr := sqlparser.ParseStatement(`CREATE TABLE t (c VARCHAR(abc))`)
	var vc *sqlparser.SyntaxError
	if !errors.As(tableErr, &vc) {
		t.Fatalf("CREATE TABLE with VARCHAR(abc): %v", tableErr)
	}
	i := types.NewInt
	for _, c := range []struct {
		src  string
		args []types.Value
		want string
	}{
		{`CREATE FUNCTION case_if(x BIGINT) RETURNS TEXT AS $$
		BEGIN
			IF CASE WHEN x > 0 THEN 1 ELSE 0 END = 1 THEN RETURN 'pos'; END IF;
			RETURN 'other';
		END; $$`, []types.Value{i(3)}, "pos"},
		{`CREATE FUNCTION case_elsif(x BIGINT) RETURNS TEXT AS $$
		BEGIN
			IF x = 0 THEN RETURN 'zero';
			ELSIF CASE WHEN x < 0 THEN TRUE ELSE FALSE END THEN RETURN 'neg';
			END IF;
			RETURN 'pos';
		END; $$`, []types.Value{i(-2)}, "neg"},
		{`CREATE FUNCTION case_while(x BIGINT) RETURNS BIGINT AS $$
		DECLARE n BIGINT := 0;
		BEGIN
			WHILE CASE WHEN n < x THEN TRUE ELSE FALSE END LOOP n := n + 1; END LOOP;
			RETURN n;
		END; $$`, []types.Value{i(4)}, "4"},
		{`CREATE FUNCTION vc_param(x VARCHAR(abc)) RETURNS VOID AS $$ BEGIN END; $$`, nil, vc.Msg},
		{`CREATE FUNCTION vc_returns() RETURNS VARCHAR(abc) AS $$ BEGIN END; $$`, nil, vc.Msg},
		{`CREATE FUNCTION vc_declare() RETURNS VOID AS $$ DECLARE s VARCHAR(abc); BEGIN END; $$`, nil, vc.Msg},
		{"CREATE FUNCTION bad_pos() RETURNS VOID AS $$\nDECLARE n BIGINT;\nBEGIN\n  n := ;\nEND; $$", nil, "line 4 col 8"},
	} {
		name := functionName(c.src)
		if _, err := ParseCreateFunction(c.src); err != nil {
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %v, want %s", name, err, c.want)
			}
			continue
		}
		h.deploy(c.src)
		v, err := h.call("alice", name, c.args...)
		if err != nil || v.String() != c.want {
			t.Errorf("%s%v = %v, %v; want %s", name, c.args, v, err, c.want)
		}
	}
}

func TestDeterminismGuardsInsideContracts(t *testing.T) {
	h := newProcHarness(t)
	// LIMIT without ORDER BY inside a contract must fail.
	h.deploy(`CREATE FUNCTION bad_limit() RETURNS VOID AS $$
	DECLARE
		x BIGINT;
	BEGIN
		SELECT id INTO x FROM sys_deployments LIMIT 1;
	END;
	$$`)
	_, err := h.call("alice", "bad_limit")
	if err == nil || !strings.Contains(err.Error(), "ORDER BY") {
		t.Fatalf("err = %v", err)
	}
	// Nondeterministic builtins do not exist.
	h.deploy(`CREATE FUNCTION bad_now() RETURNS VOID AS $$
	DECLARE
		x TEXT;
	BEGIN
		x := NOW();
	END;
	$$`)
	_, err = h.call("alice", "bad_now")
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

// TestRuntimeEdgesOfTheLanguage pins the corners ADR-0003 lists as the
// language's documented behaviour — declaration-order visibility, coercion
// and arity errors, a short INTO, control signals outside a loop,
// non-boolean conditions, variables as LIMIT and as index bounds (NULL
// after a plan was prepared for a value) — with and without the
// execute-order flow's index requirement. Each call is compared with the
// oracle by the harness; want is the value or a piece of the error.
func TestRuntimeEdgesOfTheLanguage(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE e (id BIGINT PRIMARY KEY, grp BIGINT, v TEXT)`)
	h.systemExec(`CREATE INDEX e_grp ON e (grp)`)
	h.systemExec(`INSERT INTO e VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 2, 'c'), (4, NULL, 'd')`)
	for _, src := range []string{
		`CREATE FUNCTION fwd() RETURNS BIGINT AS $$ DECLARE a BIGINT := b; b BIGINT := 1; BEGIN RETURN a; END; $$`,
		`CREATE FUNCTION selfref() RETURNS BIGINT AS $$ DECLARE a BIGINT := a + 1; BEGIN RETURN a; END; $$`,
		`CREATE FUNCTION badinit() RETURNS BIGINT AS $$ DECLARE a BIGINT := 'abc'; BEGIN RETURN a; END; $$`,
		`CREATE FUNCTION badret() RETURNS BIGINT AS $$ BEGIN RETURN 'abc'; END; $$`,
		`CREATE FUNCTION typed(a BIGINT) RETURNS BIGINT AS $$ BEGIN RETURN a; END; $$`,
		`CREATE FUNCTION into2() RETURNS BIGINT AS $$ DECLARE x BIGINT; y BIGINT; BEGIN SELECT id INTO x, y FROM e WHERE id = 1; RETURN x; END; $$`,
		`CREATE FUNCTION strayexit() RETURNS VOID AS $$ BEGIN EXIT; END; $$`,
		`CREATE FUNCTION nullcond(p BIGINT) RETURNS TEXT AS $$
			DECLARE i BIGINT := 0;
			BEGIN
				IF p > 1 THEN RETURN 'gt'; END IF;
				WHILE p LOOP i := i + 1; END LOOP;
				IF i THEN RETURN 'int'; ELSE RETURN 'else'; END IF;
			END; $$`,
		`CREATE FUNCTION bygrp(p BIGINT) RETURNS BIGINT AS $$ DECLARE n BIGINT; BEGIN SELECT COUNT(*) INTO n FROM e WHERE grp = p; RETURN n; END; $$`,
		`CREATE FUNCTION newest(p BIGINT) RETURNS BIGINT AS $$ DECLARE n BIGINT; BEGIN SELECT id INTO n FROM e WHERE id > 0 ORDER BY id DESC LIMIT p; RETURN n; END; $$`,
		`CREATE FUNCTION pairs(p BIGINT) RETURNS BIGINT AS $$
			DECLARE n BIGINT;
			BEGIN
				SELECT COUNT(*) INTO n FROM e a JOIN e b ON b.grp = a.grp AND b.id > p
				WHERE a.id = p GROUP BY a.id HAVING COUNT(*) >= p - p;
				RETURN n;
			END; $$`,
		`CREATE FUNCTION put(p BIGINT) RETURNS VOID AS $$ BEGIN INSERT INTO e (id, grp, v) VALUES (p * 10, p, current_user || p); END; $$`,
		`CREATE FUNCTION mark(p BIGINT) RETURNS VOID AS $$ BEGIN UPDATE e SET v = v || '!' WHERE id = p; END; $$`,
		`CREATE FUNCTION drop_grp(p BIGINT) RETURNS VOID AS $$ BEGIN DELETE FROM e WHERE grp = p; END; $$`,
	} {
		h.deploy(src)
	}
	i, null := types.NewInt, types.Null()
	const noIndex = "no usable index"
	for _, c := range []struct {
		name         string
		arg          []types.Value
		want, wantRI string // wantRI: under requireIndex, when it differs
	}{
		{"fwd", nil, `no table in scope for column "b"`, ""},
		{"selfref", nil, `no table in scope for column "a"`, ""},
		{"badinit", nil, "proc: init of a: types: cannot coerce TEXT to BIGINT", ""},
		{"badret", nil, "types: cannot coerce TEXT to BIGINT", ""},
		{"typed", []types.Value{types.NewString("12")}, "proc: typed arg a: types: cannot coerce TEXT to BIGINT", ""},
		{"typed", nil, "typed expects 1, got 0", ""},
		{"typed", []types.Value{null}, "NULL", ""},
		{"into2", nil, "proc: INTO expects 2 columns, query returned 1", ""},
		{"strayexit", nil, "proc: strayexit: EXIT/CONTINUE outside loop", ""},
		{"nullcond", []types.Value{null}, "else", ""},
		{"nullcond", []types.Value{i(0)}, "else", ""},
		{"nullcond", []types.Value{i(5)}, "gt", ""},
		{"bygrp", []types.Value{i(1)}, "2", ""},
		{"bygrp", []types.Value{null}, "0", noIndex}, // the plan was prepared for a value
		{"bygrp", []types.Value{i(2)}, "1", ""},
		{"newest", []types.Value{i(1)}, "4", ""},
		{"newest", []types.Value{i(0)}, "NULL", ""},
		{"newest", []types.Value{null}, "LIMIT must be a non-negative integer", ""},
		{"pairs", []types.Value{i(1)}, "1", ""},
		{"pairs", []types.Value{i(3)}, "NULL", ""},
		{"put", []types.Value{i(7)}, "NULL", "unique constraint violated"}, // the first of the two calls inserted it
		{"put", []types.Value{null}, "NOT NULL constraint violated: e.id", ""},
		{"mark", []types.Value{i(1)}, "NULL", ""},
		{"mark", []types.Value{null}, "NULL", noIndex},
		{"drop_grp", []types.Value{i(1)}, "NULL", ""},
		{"drop_grp", []types.Value{null}, "NULL", noIndex},
		{"bygrp", []types.Value{i(1)}, "0", ""},
	} {
		for _, ri := range []bool{false, true} {
			h.requireIndex = ri
			want := c.want
			if ri && c.wantRI != "" {
				want = c.wantRI
			}
			v, err := h.call("alice", c.name, c.arg...)
			got := v.String()
			if err != nil {
				got = err.Error()
			}
			if !strings.Contains(got, want) {
				t.Errorf("%s(%v) requireIndex=%v = %s, want %s", c.name, c.arg, ri, got, want)
			}
		}
	}
}
