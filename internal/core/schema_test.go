package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bcrdb/internal/engine"
	"bcrdb/internal/ordering"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// TestPrivateSchema covers §3.7's non-blockchain schema: node-local
// tables, cross-schema analytics, and the determinism fences around them.
func TestPrivateSchema(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute})
	node0 := tn.nodes[0]

	// Private DDL + DML on node 0 only.
	if _, err := node0.ExecPrivate(`CREATE TABLE crm_notes (id BIGINT PRIMARY KEY, account_id BIGINT, note TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := node0.ExecPrivate(`INSERT INTO crm_notes VALUES (1, 1, 'vip customer'), (2, 3, 'slow payer')`); err != nil {
		t.Fatal(err)
	}

	// Cross-schema analytics: join the replicated accounts table with the
	// private notes (§3.7: "reports or analytical queries combining the
	// blockchain and non-blockchain schema").
	res, err := node0.Query(`
		SELECT a.owner, n.note FROM accounts a
		JOIN crm_notes n ON n.account_id = a.id
		ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "vip customer" {
		t.Fatalf("cross-schema join = %v", res.Rows)
	}

	// Other nodes do not have the table.
	if _, err := tn.nodes[1].Query(`SELECT * FROM crm_notes`); err == nil {
		t.Fatal("private table leaked to another node")
	}

	// Private writes must not touch blockchain tables.
	if _, err := node0.ExecPrivate(`INSERT INTO accounts VALUES (99, 'rogue', 1.0)`); !errors.Is(err, engine.ErrSchemaClass) {
		t.Fatalf("private write to blockchain table err = %v", err)
	}
	// ...nor system tables.
	if _, err := node0.ExecPrivate(`DELETE FROM sys_certs WHERE name = 'alice'`); !errors.Is(err, engine.ErrSchemaClass) {
		t.Fatalf("private write to system table err = %v", err)
	}

	// Replicas stay consistent: private data is excluded from hashes.
	ch, _ := tn.submit("alice", "put_account", types.NewInt(42), types.NewString("x"), types.NewFloat(1))
	r := tn.await(ch)
	tn.waitHeights(int64(r.Block))
	tn.assertConsistent(int64(r.Block))
}

// TestContractCannotTouchPrivateOrSystemTables pins the determinism
// fences: user contracts read/write only the blockchain schema.
func TestContractCannotTouchPrivateOrSystemTables(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute})
	node0 := tn.nodes[0]
	if _, err := node0.ExecPrivate(`CREATE TABLE secrets (id BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	// Deploy contracts that try to cross the fence. Use the governance
	// flow on the replicated registry.
	deploy := func(src string) {
		t.Helper()
		rec := newRec(t, node0)
		ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Height: node0.Height(), Rec: rec}
		sub := *ctx
		sub.Params = []types.Value{types.NewString(mustName(t, src)), types.NewString(src)}
		if _, err := node0.Engine().ExecSQL(&sub, `INSERT INTO sys_contracts (name, src) VALUES ($1, $2)`); err != nil {
			t.Fatal(err)
		}
		node0.Store().CommitTx(rec, node0.Height())
	}
	deploy(`CREATE FUNCTION read_secret() RETURNS TEXT AS $$
	DECLARE v TEXT;
	BEGIN
		SELECT v INTO v FROM secrets WHERE id = 1;
		RETURN v;
	END; $$`)
	deploy(`CREATE FUNCTION write_certs() RETURNS VOID AS $$
	BEGIN
		DELETE FROM sys_certs WHERE name = 'alice';
	END; $$`)

	// Invoke directly on node 0's interpreter (execution-level check).
	call := func(name string) error {
		rec := newRec(t, node0)
		ctx := &engine.ExecCtx{Mode: engine.ModeContract, Height: node0.Height(), Rec: rec, User: "alice"}
		_, err := node0.interp.Call(ctx, name, nil)
		node0.Store().AbortTx(rec)
		return err
	}
	if err := call("read_secret"); err == nil || !strings.Contains(err.Error(), "schema-class") {
		t.Fatalf("contract read of private table err = %v", err)
	}
	if err := call("write_certs"); err == nil || !strings.Contains(err.Error(), "schema-class") {
		t.Fatalf("contract write of system table err = %v", err)
	}
}

// newRec opens a fresh transaction record against a node's store.
func newRec(t *testing.T, n *Node) *storage.TxRecord {
	t.Helper()
	return storage.NewTxRecord(n.Store().BeginTx(), n.Height())
}

// TestVacuumPrunesOldVersions covers the §7 pruning extension.
func TestVacuumPrunesOldVersions(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 1, BlockTimeout: 10 * time.Millisecond}})
	node0 := tn.nodes[0]

	// Ten updates of the same account → eleven versions.
	var last uint64
	for i := 0; i < 10; i++ {
		ch, _ := tn.submit("alice", "transfer",
			types.NewInt(1), types.NewInt(2), types.NewFloat(float64(i+1)/10))
		r := tn.await(ch)
		if !r.Committed {
			t.Fatalf("transfer %d aborted: %s", i, r.Reason)
		}
		last = r.Block
	}
	tn.waitHeights(int64(last))

	before, err := node0.Store().CountVersions("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if before < 20 { // 3 seed + 2×10 update versions, minus nothing
		t.Fatalf("expected many versions, have %d", before)
	}

	horizon := int64(last) - 2
	removed := node0.Vacuum(horizon)
	if removed == 0 {
		t.Fatal("vacuum removed nothing")
	}
	after, _ := node0.Store().CountVersions("accounts")
	if after >= before {
		t.Fatalf("versions: %d → %d", before, after)
	}

	// Live state unchanged.
	res, err := node0.Query(`SELECT SUM(balance) FROM accounts`)
	if err != nil || res.Rows[0][0].Float() != 300.0 {
		t.Fatalf("post-vacuum balance = %v, %v", res.Rows, err)
	}
	// Recent provenance (after the horizon) survives.
	prov, err := node0.Query(`SELECT COUNT(*) FROM accounts PROVENANCE WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Rows[0][0].Int() < 2 {
		t.Fatalf("recent history lost: %v", prov.Rows)
	}
	// Vacuum clamps the horizon to the committed height.
	_ = node0.Vacuum(1 << 40)
	res, _ = node0.Query(`SELECT SUM(balance) FROM accounts`)
	if res.Rows[0][0].Float() != 300.0 {
		t.Fatal("aggressive vacuum corrupted live state")
	}
}

func mustName(t *testing.T, src string) string {
	t.Helper()
	// Extract the function name from CREATE FUNCTION <name>(...
	i := strings.Index(src, "FUNCTION ")
	if i < 0 {
		t.Fatal("no FUNCTION in source")
	}
	rest := src[i+len("FUNCTION "):]
	j := strings.IndexAny(rest, "( \n")
	return strings.ToLower(strings.TrimSpace(rest[:j]))
}

// TestGenesisRefusesSystemContractName: a genesis contract named like a
// system contract would sit in sys_contracts and never run (the
// interpreter dispatches system contracts first), so Bootstrap refuses it
// by name and leaves nothing of the refused genesis behind.
func TestGenesisRefusesSystemContractName(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute})
	cfg := tn.nodes[0].cfg
	cfg.Name = "db-reserved"
	n, err := NewNode(cfg, tn.nodes[0].signer, tn.netReg.Clone(), tn.net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	err = n.Bootstrap(Genesis{Certs: genesisCerts(tn), Contracts: []string{
		`CREATE FUNCTION create_user(a TEXT) RETURNS VOID AS $$ BEGIN RETURN; END; $$`}})
	if err == nil || !strings.Contains(err.Error(), `"create_user" is a system contract`) {
		t.Fatalf("Bootstrap with a genesis contract named create_user: %v", err)
	}
	res, qerr := n.Query(`SELECT name FROM sys_contracts`)
	if qerr != nil || len(res.Rows) != 0 {
		t.Fatalf("sys_contracts after the refused genesis: %v, %v", res, qerr)
	}
}

// TestPrivateCommitsValidate interleaves two private transactions that
// insert the same primary key: both execute, then both commit. The
// second commit must be refused as a unique violation, and the first
// one's row must be the only one.
func TestPrivateCommitsValidate(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1})
	node := tn.nodes[0]
	if _, err := node.ExecPrivate(`CREATE TABLE notes (id BIGINT PRIMARY KEY, note TEXT)`); err != nil {
		t.Fatal(err)
	}
	_, first, err := node.execPrivate(`INSERT INTO notes VALUES (1, 'first')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := node.execPrivate(`INSERT INTO notes VALUES (1, 'second')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.commitPrivate(first); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	var ve *storage.ValidationError
	if err := node.commitPrivate(second); !errors.As(err, &ve) || ve.Kind != "unique" {
		t.Fatalf("second commit of key 1: %v, want a unique violation", err)
	}
	res, err := node.Query(`SELECT note FROM notes WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "first" {
		t.Fatalf("rows with key 1 = %v, want only the first commit's", res.Rows)
	}
}
