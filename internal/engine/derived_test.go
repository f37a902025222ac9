package engine

import (
	"errors"
	"strings"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// registerChainLedger registers a derived table shaped like the node's
// sys_ledger under a name of its own (the golden corpus keeps a plain
// table called sys_ledger): three fixed rows, a primary key on txid and
// index definitions on block and local_xid, none on username. The
// provider yields in reverse order; the engine sorts.
func registerChainLedger(t *testing.T, st *storage.Store) {
	t.Helper()
	text, num := types.KindString, types.KindInt
	schema := storage.Schema{Name: "chain_ledger", Class: storage.ClassSystem, PKCols: []int{0},
		Columns: []storage.Column{{Name: "txid", Type: text, NotNull: true}, {Name: "block", Type: num, NotNull: true},
			{Name: "username", Type: text}, {Name: "status", Type: text}, {Name: "local_xid", Type: num}}}
	cols := map[string]int{"chain_ledger_pkey": 0, "chain_ledger_block": 1, "chain_ledger_xid": 4}
	rows := []types.Row{
		{types.NewString("ta"), types.NewInt(1), types.NewString("ann"), types.NewString("committed"), types.NewInt(7)},
		{types.NewString("tb"), types.NewInt(1), types.NewString("bob"), types.NewString("aborted"), types.Null()},
		{types.NewString("tc"), types.NewInt(2), types.NewString("ann"), types.NewString("committed"), types.NewInt(9)},
	}
	scan := func(ixName string, rng index.Range, height int64, fn func(*storage.RowVersion) bool) error {
		for i := len(rows) - 1; i >= 0; i-- {
			r := rows[i]
			v := &storage.RowVersion{ID: uint64(i + 1), Data: r, CreatorBlk: r[1].Int(), DeleterBlk: storage.NoBlock}
			if r[1].Int() <= height && rng.Contains(types.Key{r[cols[ixName]]}) && !fn(v) {
				break
			}
		}
		return nil
	}
	err := st.RegisterDerived(schema, []storage.DerivedIndex{
		{Name: "chain_ledger_block", Cols: []int{1}}, {Name: "chain_ledger_xid", Cols: []int{4}}}, scan)
	if err != nil {
		t.Fatal(err)
	}
}

// TestDerivedTableIsReadOnly: every statement that would modify a derived
// table — its rows, its indexes, its existence — is a schema-class
// violation in every mode, and a contract may not even read it.
func TestDerivedTableIsReadOnly(t *testing.T) {
	h := newHarness(t)
	h.block = 2
	h.st.SetHeight(2)
	registerChainLedger(t, h.st)

	modes := []struct {
		name string
		ctx  ExecCtx
	}{
		{"system", ExecCtx{Mode: ModeSystem}},
		{"system-ddl", ExecCtx{Mode: ModeSystem, SystemDDL: true}},
		{"contract", ExecCtx{Mode: ModeContract}},
		{"contract-syswrites", ExecCtx{Mode: ModeContract, AllowSystemWrites: true}},
		{"private", ExecCtx{Mode: ModePrivate}},
		{"read-only", ExecCtx{Mode: ModeReadOnly}},
	}
	writes := []string{
		`INSERT INTO chain_ledger VALUES ('td', 3, 'dee', 'committed', 11)`,
		`UPDATE chain_ledger SET status = 'aborted' WHERE txid = 'ta'`,
		`UPDATE chain_ledger SET status = 'aborted' WHERE txid = 'matches-nothing'`,
		`DELETE FROM chain_ledger WHERE block = 1`,
		`DELETE FROM chain_ledger`,
		`CREATE INDEX chain_ledger_user ON chain_ledger (username)`,
		`DROP TABLE chain_ledger`,
		`DROP TABLE IF EXISTS chain_ledger`,
	}
	for _, m := range modes {
		for _, sql := range writes {
			ctx := m.ctx
			ctx.Height = h.block
			if ctx.Mode != ModeReadOnly {
				ctx.Rec = storage.NewTxRecord(h.st.BeginTx(), h.block)
			}
			_, err := h.eng.ExecSQL(&ctx, sql)
			if !errors.Is(err, ErrSchemaClass) {
				t.Errorf("%s: %s: err = %v, want ErrSchemaClass", m.name, sql, err)
			}
			if ctx.Rec != nil {
				if ctx.Rec.HasWrites() {
					t.Errorf("%s: %s left writes in the record", m.name, sql)
				}
				h.st.AbortTx(ctx.Rec)
			}
		}
	}

	// Reads: refused to contracts, open to everything else, through the
	// provider's paths and through joins and provenance.
	if _, err := h.tryExec(`SELECT txid FROM chain_ledger WHERE txid = 'ta'`); !errors.Is(err, ErrSchemaClass) {
		t.Errorf("contract read: err = %v, want ErrSchemaClass", err)
	}
	if _, err := h.tryExec(`SELECT o.txid FROM chain_ledger o JOIN chain_ledger i ON i.txid = o.txid`); !errors.Is(err, ErrSchemaClass) {
		t.Errorf("contract join: err = %v, want ErrSchemaClass", err)
	}
	for _, c := range []struct{ sql, want string }{
		{`SELECT txid FROM chain_ledger`, "ta,tb,tc"},
		{`SELECT txid FROM chain_ledger WHERE txid = 'tb'`, "tb"},
		{`SELECT txid FROM chain_ledger WHERE block BETWEEN 2 AND 9`, "tc"},
		{`SELECT txid FROM chain_ledger WHERE block = 1`, "ta,tb"},
		{`SELECT txid FROM chain_ledger WHERE local_xid = 9`, "tc"},
		{`SELECT txid FROM chain_ledger WHERE local_xid IS NULL`, "tb"},
		{`SELECT txid FROM chain_ledger WHERE username = 'ann' ORDER BY txid DESC`, "tc,ta"},
		{`SELECT COUNT(*) FROM chain_ledger WHERE status = 'committed'`, "2"},
		{`SELECT i.txid FROM chain_ledger o JOIN chain_ledger i ON i.block = o.block WHERE o.txid = 'tb'`, "ta,tb"},
		{`SELECT txid, creator_block FROM chain_ledger PROVENANCE WHERE deleter_block IS NULL AND xmax IS NULL AND block = 2`, "tc 2"},
	} {
		res := h.query(c.sql)
		var got []string
		for _, r := range res.Rows {
			vals := make([]string, len(r))
			for i, v := range r {
				vals[i] = v.String()
			}
			got = append(got, strings.Join(vals, " "))
		}
		if strings.Join(got, ",") != c.want {
			t.Errorf("%s = %v, want %s", c.sql, got, c.want)
		}
	}
	ro := &ExecCtx{Mode: ModeReadOnly, Height: 1}
	if res, err := h.eng.ExecSQL(ro, `SELECT COUNT(*) FROM chain_ledger`); err != nil || res.Rows[0][0].Int() != 2 {
		t.Errorf("COUNT(*) at height 1 = %v, %v", res, err)
	}
}
