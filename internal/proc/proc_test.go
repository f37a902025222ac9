package proc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"bcrdb/internal/engine"
	"bcrdb/internal/index"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// procHarness wires a store, engine and interpreter with system tables
// and a couple of registered users — twice: ref is a twin store that
// receives every statement and every call the first one does, contracts
// through the tree-walking oracle (oracle_test.go). Every call is thereby
// a compiled-vs-oracle comparison of what a replica could observe.
type procHarness struct {
	t     *testing.T
	st    *storage.Store
	eng   *engine.Engine
	in    *Interp
	ref   *oracle
	block int64
	// requireIndex runs calls as the execute-order flow does (§4.3).
	requireIndex bool
}

func newProcHarness(t *testing.T) *procHarness {
	st := storage.NewStore()
	eng := engine.New(st)
	h := &procHarness{t: t, st: st, eng: eng, in: NewInterp(eng), ref: newOracle()}
	for _, e := range []*engine.Engine{h.eng, h.ref.eng} {
		if err := CreateSystemTables(e); err != nil {
			t.Fatal(err)
		}
	}
	// Seed admin users for two orgs plus a plain client.
	h.systemExec(`INSERT INTO sys_certs VALUES
		('admin1', 'org1', 'admin', 'pk1'),
		('admin2', 'org2', 'admin', 'pk2'),
		('alice',  'org1', 'client', 'pk3')`)
	t.Cleanup(func() {
		if got, want := h.st.StateHash(h.block), h.ref.st.StateHash(h.block); got != want {
			t.Errorf("final state hash at height %d: compiled %x, oracle %x", h.block, got, want)
		}
	})
	return h
}

// systemExec runs a statement as the node itself, on both stores, and
// commits a block.
func (h *procHarness) systemExec(sql string) {
	h.t.Helper()
	recs := [2]*storage.TxRecord{}
	for i, e := range []*engine.Engine{h.eng, h.ref.eng} {
		recs[i] = storage.NewTxRecord(e.Store().BeginTx(), h.block)
		ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Height: h.block, Rec: recs[i]}
		if _, err := e.ExecSQL(ctx, sql); err != nil {
			h.t.Fatalf("systemExec %q: %v", sql, err)
		}
	}
	h.commit(recs[0], recs[1])
}

// commit seals one block holding rec on the store and refRec on the twin.
func (h *procHarness) commit(rec, refRec *storage.TxRecord) {
	h.block++
	h.st.CommitTx(rec, h.block)
	h.st.SetHeight(h.block)
	h.ref.st.CommitTx(refRec, h.block)
	h.ref.st.SetHeight(h.block)
}

// call invokes a contract as the given user in a fresh transaction and
// commits on success.
func (h *procHarness) call(user, name string, args ...types.Value) (types.Value, error) {
	h.t.Helper()
	v, _, err := h.callWithRec(user, name, args...)
	return v, err
}

// callWithRec is call, returning the transaction record as well so tests
// can inspect the recorded read ranges. The same call runs through the
// oracle on the twin store; any observable difference fails the test.
func (h *procHarness) callWithRec(user, name string, args ...types.Value) (types.Value, *storage.TxRecord, error) {
	h.t.Helper()
	begin := func(st *storage.Store) (*storage.TxRecord, *engine.ExecCtx) {
		rec := storage.NewTxRecord(st.BeginTx(), h.block)
		return rec, &engine.ExecCtx{Mode: engine.ModeContract, Height: h.block, Rec: rec,
			User: user, RequireIndex: h.requireIndex}
	}
	rec, ctx := begin(h.st)
	v, err := h.in.Call(ctx, name, args)
	refRec, refCtx := begin(h.ref.st)
	refV, refErr := h.ref.call(refCtx, name, args)

	diverged := func(what string, got, want any) {
		h.t.Helper()
		h.t.Fatalf("%s(%v) by %s: %s diverged\n compiled: %v\n oracle:   %v", name, args, user, what, got, want)
	}
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		diverged("error", err, refErr)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"return value", v, refV},
		{"read rows", rec.ReadRows, refRec.ReadRows},
		{"read ranges", rec.ReadRanges, refRec.ReadRanges},
		{"inserted versions", rec.Inserted, refRec.Inserted},
		{"superseded versions", rec.DeletedOld, refRec.DeletedOld},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			diverged(c.what, c.got, c.want)
		}
	}
	for _, ir := range rec.Inserted { // same refs on both sides by now
		if got, want := insertedRow(h.st, rec, ir), insertedRow(h.ref.st, refRec, ir); !reflect.DeepEqual(got, want) {
			diverged("row written to "+ir.Table, got, want)
		}
	}

	if err != nil {
		h.st.AbortTx(rec)
		h.ref.st.AbortTx(refRec)
		return v, rec, err
	}
	h.commit(rec, refRec)
	return v, rec, nil
}

func (h *procHarness) mustCall(user, name string, args ...types.Value) types.Value {
	h.t.Helper()
	v, err := h.call(user, name, args...)
	if err != nil {
		h.t.Fatalf("call %s by %s: %v", name, user, err)
	}
	return v
}

// deploy pushes a contract through the full §3.7 governance flow.
func (h *procHarness) deploy(src string) {
	h.t.Helper()
	id := h.mustCall("admin1", "create_deploytx", types.NewString(src))
	h.mustCall("admin1", "approve_deploytx", id)
	h.mustCall("admin2", "approve_deploytx", id)
	h.mustCall("admin1", "submit_deploytx", id)
}

func (h *procHarness) query(sql string, params ...types.Value) *engine.Result {
	h.t.Helper()
	ctx := &engine.ExecCtx{Mode: engine.ModeReadOnly, Height: h.block, Params: params}
	res, err := h.eng.ExecSQL(ctx, sql)
	if err != nil {
		h.t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

// --- parsing ------------------------------------------------------------------

func TestParseCreateFunction(t *testing.T) {
	src := `CREATE FUNCTION transfer(from_id BIGINT, to_id BIGINT, amt DOUBLE) RETURNS VOID AS $$
	DECLARE
		bal DOUBLE;
	BEGIN
		SELECT balance INTO bal FROM accounts WHERE id = from_id;
		IF bal IS NULL THEN
			RAISE EXCEPTION 'no such account';
		ELSIF bal < amt THEN
			RAISE EXCEPTION 'insufficient funds';
		END IF;
		UPDATE accounts SET balance = balance - amt WHERE id = from_id;
		UPDATE accounts SET balance = balance + amt WHERE id = to_id;
	END;
	$$ LANGUAGE plpgsql;`
	p, err := ParseCreateFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "transfer" || len(p.Params) != 3 || p.Params[2].Type != types.KindFloat {
		t.Fatalf("proc = %+v", p)
	}
	if len(p.Decls) != 1 || p.Decls[0].Name != "bal" {
		t.Fatalf("decls = %+v", p.Decls)
	}
	if len(p.Body) != 4 {
		t.Fatalf("body stmts = %d", len(p.Body))
	}
	if _, ok := p.Body[1].(*If); !ok {
		t.Fatalf("stmt 2 = %T", p.Body[1])
	}
}

func TestParseCreateOrReplace(t *testing.T) {
	p, err := ParseCreateFunction(`CREATE OR REPLACE FUNCTION f() RETURNS BIGINT AS $$ BEGIN RETURN 1; END; $$`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Replace || p.Returns != types.KindInt {
		t.Fatalf("proc = %+v", p)
	}
}

func TestParseWhileLoop(t *testing.T) {
	p, err := ParseCreateFunction(`CREATE FUNCTION f(n BIGINT) RETURNS BIGINT AS $$
	DECLARE
		i BIGINT := 0;
		acc BIGINT := 0;
	BEGIN
		WHILE i < n LOOP
			i := i + 1;
			IF i % 2 = 0 THEN
				CONTINUE;
			END IF;
			acc := acc + i;
			IF acc > 100 THEN
				EXIT;
			END IF;
		END LOOP;
		RETURN acc;
	END;
	$$`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != 2 {
		t.Fatalf("body = %d stmts", len(p.Body))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`SELECT 1`,
		`CREATE FUNCTION f() AS $$ BEGIN END; $$`,                                      // missing RETURNS
		`CREATE FUNCTION f() RETURNS VOID AS BEGIN END;`,                               // missing $$
		`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN END;`,                            // unterminated $$
		`CREATE FUNCTION f(x BIGINT, x TEXT) RETURNS VOID AS $$ BEGIN RETURN; END; $$`, // dup param
		`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN IF 1 THEN END; $$`,               // bad IF
		`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN x := ; END; $$`,
	}
	for _, src := range cases {
		if _, err := ParseCreateFunction(src); err == nil {
			t.Errorf("ParseCreateFunction(%q) unexpectedly succeeded", src)
		}
	}
}

func TestParseDropFunction(t *testing.T) {
	name, err := ParseDropFunction(`DROP FUNCTION foo;`)
	if err != nil || name != "foo" {
		t.Fatalf("got %q, %v", name, err)
	}
	if _, err := ParseDropFunction(`DROP TABLE foo`); err == nil {
		t.Fatal("DROP TABLE should not parse as DROP FUNCTION")
	}
}

// --- execution ------------------------------------------------------------------

func TestDeployAndInvokeContract(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance DOUBLE NOT NULL)`)
	h.systemExec(`INSERT INTO accounts VALUES (1, 100.0), (2, 50.0)`)

	h.deploy(`CREATE FUNCTION transfer(from_id BIGINT, to_id BIGINT, amt DOUBLE) RETURNS VOID AS $$
	DECLARE
		bal DOUBLE;
	BEGIN
		SELECT balance INTO bal FROM accounts WHERE id = from_id;
		IF bal IS NULL THEN
			RAISE EXCEPTION 'no such account';
		END IF;
		IF bal < amt THEN
			RAISE EXCEPTION 'insufficient funds';
		END IF;
		UPDATE accounts SET balance = balance - amt WHERE id = from_id;
		UPDATE accounts SET balance = balance + amt WHERE id = to_id;
	END;
	$$ LANGUAGE plpgsql;`)

	h.mustCall("alice", "transfer", types.NewInt(1), types.NewInt(2), types.NewFloat(30))
	res := h.query(`SELECT balance FROM accounts ORDER BY id`)
	if res.Rows[0][0].Float() != 70 || res.Rows[1][0].Float() != 80 {
		t.Fatalf("balances = %v", res.Rows)
	}

	// Insufficient funds raises and aborts.
	_, err := h.call("alice", "transfer", types.NewInt(1), types.NewInt(2), types.NewFloat(1000))
	var raised *RaisedError
	if !errors.As(err, &raised) || !strings.Contains(raised.Msg, "insufficient") {
		t.Fatalf("err = %v", err)
	}
	// State unchanged after abort.
	res = h.query(`SELECT balance FROM accounts WHERE id = 1`)
	if res.Rows[0][0].Float() != 70 {
		t.Fatalf("balance after abort = %v", res.Rows[0][0])
	}

	// Unknown account raises.
	_, err = h.call("alice", "transfer", types.NewInt(99), types.NewInt(2), types.NewFloat(1))
	if !errors.As(err, &raised) || !strings.Contains(raised.Msg, "no such") {
		t.Fatalf("err = %v", err)
	}
}

func TestContractReturnValueAndLoops(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION sum_odds(n BIGINT) RETURNS BIGINT AS $$
	DECLARE
		i BIGINT := 0;
		acc BIGINT := 0;
	BEGIN
		WHILE i < n LOOP
			i := i + 1;
			IF i % 2 = 0 THEN
				CONTINUE;
			END IF;
			acc := acc + i;
		END LOOP;
		RETURN acc;
	END;
	$$`)
	v := h.mustCall("alice", "sum_odds", types.NewInt(10))
	if v.Int() != 25 { // 1+3+5+7+9
		t.Fatalf("sum_odds(10) = %v", v)
	}
}

func TestContractCallsContract(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE log (id BIGINT PRIMARY KEY, msg TEXT)`)
	h.deploy(`CREATE FUNCTION note(i BIGINT, m TEXT) RETURNS VOID AS $$
	BEGIN
		INSERT INTO log VALUES (i, m);
	END;
	$$`)
	// Direct call works; nested invocation is covered by the interpreter
	// sharing ctx across Call invocations.
	h.mustCall("alice", "note", types.NewInt(1), types.NewString("hello"))
	res := h.query(`SELECT msg FROM log WHERE id = 1`)
	if res.Rows[0][0].Str() != "hello" {
		t.Fatal("note failed")
	}
}

func TestVariableColumnConflictColumnWins(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE t (id BIGINT PRIMARY KEY, balance DOUBLE)`)
	h.systemExec(`INSERT INTO t VALUES (1, 10.0)`)
	// Parameter named like the column: the column wins inside SQL.
	h.deploy(`CREATE FUNCTION bump(balance DOUBLE) RETURNS VOID AS $$
	BEGIN
		UPDATE t SET balance = balance + 1 WHERE id = 1;
	END;
	$$`)
	h.mustCall("alice", "bump", types.NewFloat(1000))
	res := h.query(`SELECT balance FROM t WHERE id = 1`)
	if res.Rows[0][0].Float() != 11.0 {
		t.Fatalf("balance = %v (columns must shadow variables)", res.Rows[0][0])
	}
}

func TestVarBindingEnablesIndexPlan(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	h.systemExec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	h.deploy(`CREATE FUNCTION get_v(p_id BIGINT) RETURNS TEXT AS $$
	DECLARE
		out_v TEXT;
	BEGIN
		SELECT v INTO out_v FROM t WHERE id = p_id;
		RETURN out_v;
	END;
	$$`)
	// RequireIndex (execute-order-in-parallel mode) must accept the
	// variable-bounded predicate.
	h.requireIndex = true
	v, err := h.call("alice", "get_v", types.NewInt(2))
	if err != nil {
		t.Fatalf("indexed var predicate: %v", err)
	}
	if v.Str() != "b" {
		t.Fatalf("get_v = %v", v)
	}
}

func TestCurrentUserVisibleInContract(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION whoami() RETURNS TEXT AS $$
	BEGIN
		RETURN current_user;
	END;
	$$`)
	v := h.mustCall("alice", "whoami")
	if v.Str() != "alice" {
		t.Fatalf("whoami = %v", v)
	}
}

func TestUnknownContract(t *testing.T) {
	h := newProcHarness(t)
	_, err := h.call("alice", "missing")
	if !errors.Is(err, ErrUnknownContract) {
		t.Fatalf("err = %v", err)
	}
}

func TestArgCountMismatch(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION f(a BIGINT) RETURNS VOID AS $$ BEGIN RETURN; END; $$`)
	_, err := h.call("alice", "f")
	if !errors.Is(err, ErrArgCount) {
		t.Fatalf("err = %v", err)
	}
}

// --- deployment governance ---------------------------------------------------------

func TestDeploymentRequiresAllOrgApprovals(t *testing.T) {
	h := newProcHarness(t)
	id := h.mustCall("admin1", "create_deploytx",
		types.NewString(`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN RETURN; END; $$`))
	h.mustCall("admin1", "approve_deploytx", id)
	// org2 has not approved.
	if _, err := h.call("admin1", "submit_deploytx", id); err == nil ||
		!strings.Contains(err.Error(), "org2") {
		t.Fatalf("submit without full approval: %v", err)
	}
	h.mustCall("admin2", "approve_deploytx", id)
	h.mustCall("admin1", "submit_deploytx", id)
	// Now deployed.
	if _, err := h.call("alice", "f"); err != nil {
		t.Fatalf("call after deploy: %v", err)
	}
}

func TestDeploymentRejection(t *testing.T) {
	h := newProcHarness(t)
	id := h.mustCall("admin1", "create_deploytx",
		types.NewString(`CREATE FUNCTION g() RETURNS VOID AS $$ BEGIN RETURN; END; $$`))
	h.mustCall("admin2", "comment_deploytx", id, types.NewString("needs review"))
	h.mustCall("admin2", "reject_deploytx", id, types.NewString("not needed"))
	if _, err := h.call("admin1", "approve_deploytx", id); err == nil {
		t.Fatal("approve after rejection should fail")
	}
	res := h.query(`SELECT status, rejections, comments FROM sys_deployments WHERE id = $1`, id)
	if res.Rows[0][0].Str() != "rejected" {
		t.Fatalf("status = %v", res.Rows[0][0])
	}
	if !strings.Contains(res.Rows[0][1].Str(), "not needed") {
		t.Fatalf("rejections = %v", res.Rows[0][1])
	}
	if !strings.Contains(res.Rows[0][2].Str(), "needs review") {
		t.Fatalf("comments = %v", res.Rows[0][2])
	}
}

func TestDeploymentRequiresAdmin(t *testing.T) {
	h := newProcHarness(t)
	_, err := h.call("alice", "create_deploytx",
		types.NewString(`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN RETURN; END; $$`))
	if !errors.Is(err, ErrNotAdmin) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeploymentValidatesSQL(t *testing.T) {
	h := newProcHarness(t)
	_, err := h.call("admin1", "create_deploytx", types.NewString(`SELECT 1`))
	if err == nil {
		t.Fatal("non-function SQL should be rejected")
	}
}

// A contract named like a system contract would be stored and never run:
// Call dispatches system contracts before it looks at sys_contracts.
func TestDeploymentRefusesSystemContractName(t *testing.T) {
	h := newProcHarness(t)
	for _, src := range []string{
		`CREATE FUNCTION create_user(a TEXT) RETURNS VOID AS $$ BEGIN RETURN; END; $$`,
		`CREATE OR REPLACE FUNCTION submit_deploytx(id BIGINT) RETURNS VOID AS $$ BEGIN RETURN; END; $$`,
	} {
		_, err := h.call("admin1", "create_deploytx", types.NewString(src))
		if err == nil || !strings.Contains(err.Error(), "is a system contract") {
			t.Fatalf("create_deploytx(%s): %v", src, err)
		}
	}
	if n := len(h.query(`SELECT id FROM sys_deployments`).Rows); n != 0 {
		t.Fatalf("%d deployments recorded for refused names", n)
	}
}

func TestContractReplaceAndDrop(t *testing.T) {
	h := newProcHarness(t)
	h.deploy(`CREATE FUNCTION f() RETURNS BIGINT AS $$ BEGIN RETURN 1; END; $$`)
	if v := h.mustCall("alice", "f"); v.Int() != 1 {
		t.Fatalf("f() = %v", v)
	}
	// Replace.
	h.deploy(`CREATE OR REPLACE FUNCTION f() RETURNS BIGINT AS $$ BEGIN RETURN 2; END; $$`)
	if v := h.mustCall("alice", "f"); v.Int() != 2 {
		t.Fatalf("replaced f() = %v", v)
	}
	// Creating without REPLACE over an existing name fails at submit.
	id := h.mustCall("admin1", "create_deploytx",
		types.NewString(`CREATE FUNCTION f() RETURNS BIGINT AS $$ BEGIN RETURN 3; END; $$`))
	h.mustCall("admin1", "approve_deploytx", id)
	h.mustCall("admin2", "approve_deploytx", id)
	if _, err := h.call("admin1", "submit_deploytx", id); err == nil {
		t.Fatal("create over existing without REPLACE should fail")
	}
	// Drop.
	h.deploy(`DROP FUNCTION f;`)
	if _, err := h.call("alice", "f"); !errors.Is(err, ErrUnknownContract) {
		t.Fatalf("after drop err = %v", err)
	}
}

// --- user management ------------------------------------------------------------------

func TestUserManagement(t *testing.T) {
	h := newProcHarness(t)
	h.mustCall("admin1", "create_user",
		types.NewString("bob"), types.NewString("org2"), types.NewString("client"), types.NewString("pk9"))
	res := h.query(`SELECT org, role FROM sys_certs WHERE name = 'bob'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "org2" {
		t.Fatalf("bob = %v", res.Rows)
	}
	h.mustCall("admin1", "update_user", types.NewString("bob"), types.NewString("pk10"))
	res = h.query(`SELECT pubkey FROM sys_certs WHERE name = 'bob'`)
	if res.Rows[0][0].Str() != "pk10" {
		t.Fatal("update_user")
	}
	h.mustCall("admin1", "delete_user", types.NewString("bob"))
	if len(h.query(`SELECT name FROM sys_certs WHERE name = 'bob'`).Rows) != 0 {
		t.Fatal("delete_user")
	}
	// Clients cannot manage users.
	if _, err := h.call("alice", "create_user",
		types.NewString("eve"), types.NewString("org1"), types.NewString("client"), types.NewString("x")); !errors.Is(err, ErrNotAdmin) {
		t.Fatalf("err = %v", err)
	}
	// Bad role rejected.
	if _, err := h.call("admin1", "create_user",
		types.NewString("eve"), types.NewString("org1"), types.NewString("root"), types.NewString("x")); err == nil {
		t.Fatal("bad role should fail")
	}
}

func TestContractUpgradeAbortsInFlight(t *testing.T) {
	// A transaction that executed contract v1 must fail validation if the
	// contract was replaced before its commit turn (§3.7: "any
	// uncommitted transactions that executed on an older version of the
	// contract are aborted").
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	h.deploy(`CREATE FUNCTION put(i BIGINT) RETURNS VOID AS $$ BEGIN INSERT INTO t VALUES (i, 1); END; $$`)

	// Start a transaction using v1 but do not commit yet.
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &engine.ExecCtx{Mode: engine.ModeContract, Height: h.block, Rec: rec, User: "alice"}
	if _, err := h.in.Call(ctx, "put", []types.Value{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}

	// Meanwhile the contract is replaced (commits in later blocks).
	h.deploy(`CREATE OR REPLACE FUNCTION put(i BIGINT) RETURNS VOID AS $$ BEGIN INSERT INTO t VALUES (i, 2); END; $$`)

	// The in-flight transaction read the old contract row, now
	// superseded: stale-read validation must abort it.
	if err := h.st.Validate(rec, h.block+1); err == nil {
		t.Fatal("transaction on old contract version should fail validation")
	}
	h.st.AbortTx(rec)
}

// insertedRow reads back, through the table's primary key, a row rec
// inserted (nil when it is not there).
func insertedRow(st *storage.Store, rec *storage.TxRecord, ir storage.ItemRef) types.Row {
	tb, err := st.Table(ir.Table)
	if err != nil {
		return nil
	}
	var row types.Row
	_ = st.ScanIndex(ir.Table, tb.PrimaryIndexName(), index.AllRange(), rec.ID, rec.SnapshotHeight, storage.ScanVisible,
		func(v *storage.RowVersion) bool {
			if v.ID != ir.Ref {
				return true
			}
			row = v.Data
			return false
		})
	return row
}
