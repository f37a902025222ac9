package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bcrdb/internal/codec"
	"bcrdb/internal/engine"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// testdata/ledger_rows.json holds what sys_ledger read at the last commit
// that still materialised it (dd78523: Node.appendLedgerRows INSERTed one
// MVCC row per transaction), for the scenario of ledger_scenario_test.go,
// one run per flow, both backends agreeing. It was written by a throwaway
// recorder at that commit — this scenario file, the query below and a JSON
// dump — and is not regenerated from this code: a derived table compared
// with rows it produced itself would prove nothing.
const ledgerRowsQuery = `SELECT txid, block, seq, username, contract, args, status, commit_time FROM sys_ledger`

type ledgerRec struct {
	TxID       string `json:"txid"`
	Block      int64  `json:"block"`
	Seq        int64  `json:"seq"`
	Username   string `json:"username"`
	Contract   string `json:"contract"`
	Args       string `json:"args"`
	Status     string `json:"status"`
	CommitTime int64  `json:"commit_time"`
}

func recordedLedgerRows(t *testing.T, flow string) []ledgerRec {
	t.Helper()
	raw, err := os.ReadFile("testdata/ledger_rows.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Flows map[string][]ledgerRec `json:"flows"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	rows := file.Flows[flow]
	if len(rows) == 0 {
		t.Fatalf("no recorded rows for flow %q", flow)
	}
	return rows
}

// ledgerRecs runs a query selecting the recorded columns and decodes it.
func ledgerRecs(t *testing.T, node *Node, sql string, params ...types.Value) []ledgerRec {
	t.Helper()
	res, err := node.Query(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]ledgerRec, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = ledgerRec{r[0].Str(), r[1].Int(), r[2].Int(), r[3].Str(), r[4].Str(), r[5].Str(), r[6].Str(), r[7].Int()}
	}
	return out
}

// seen reports whether a processed block carried the transaction id
// (§3.4.3 unique-identifier rule).
func (v *ledgerView) seen(id string) bool {
	v.mu.RLock()
	_, ok := v.byID[id]
	v.mu.RUnlock()
	return ok
}

func keepRecs(rows []ledgerRec, keep func(ledgerRec) bool) []ledgerRec {
	out := []ledgerRec{}
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func count(t testing.TB, node *Node, sql string, params ...types.Value) int64 {
	t.Helper()
	res, err := node.Query(sql, params...)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("%s: %v, %v", sql, res, err)
	}
	return res.Rows[0][0].Int()
}

// TestDerivedLedgerMatchesRecordedRows: the derived sys_ledger returns
// the rows the materialised table held, through every access path a
// client query can take, on both backends and both flows.
func TestDerivedLedgerMatchesRecordedRows(t *testing.T) {
	for _, fl := range []struct {
		name string
		flow Flow
	}{{"order-then-execute", OrderThenExecute}, {"execute-order", ExecuteOrder}} {
		for _, backend := range []storage.Kind{storage.KindMemory, storage.KindDisk} {
			t.Run(fl.name+"/"+string(backend), func(t *testing.T) {
				want := recordedLedgerRows(t, fl.name)
				tn := newTestNet(t, ledgerScenarioOpts(fl.flow, backend))
				blocks := runLedgerScenario(t, tn, fl.flow)
				node := tn.nodes[0]
				nBlocks := int64(len(blocks))
				eq := func(what string, got, exp []ledgerRec) {
					t.Helper()
					if len(exp) == 0 {
						t.Fatalf("%s: the scenario leaves this path nothing to return", what)
					}
					if !reflect.DeepEqual(got, exp) {
						t.Errorf("%s:\n got  %+v\n want %+v", what, got, exp)
					}
				}

				// Full scan, in the order the rows were recorded.
				eq("full scan", ledgerRecs(t, node, ledgerRowsQuery+` ORDER BY block, seq`), want)
				if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger`); n != int64(len(want)) {
					t.Errorf("COUNT(*) = %d, want %d", n, len(want))
				}

				// Point path: every recorded id finds its row, others nothing.
				for _, w := range want {
					eq("txid = "+w.TxID, ledgerRecs(t, node, ledgerRowsQuery+` WHERE txid = $1`, types.NewString(w.TxID)), []ledgerRec{w})
				}
				if got := ledgerRecs(t, node, ledgerRowsQuery+` WHERE txid = $1`, types.NewString("no-such-id")); len(got) != 0 {
					t.Errorf("unknown txid returned %+v", got)
				}

				// Block path: ranges, a point, an open and an exclusive bound.
				for lo := int64(0); lo <= nBlocks+1; lo++ {
					for hi := lo; hi <= nBlocks+1; hi++ {
						got := ledgerRecs(t, node, ledgerRowsQuery+` WHERE block BETWEEN $1 AND $2 ORDER BY block, seq`, types.NewInt(lo), types.NewInt(hi))
						exp := keepRecs(want, func(r ledgerRec) bool { return r.Block >= lo && r.Block <= hi })
						if !reflect.DeepEqual(got, exp) {
							t.Errorf("block BETWEEN %d AND %d:\n got  %+v\n want %+v", lo, hi, got, exp)
						}
					}
				}
				eq("block = 2", ledgerRecs(t, node, ledgerRowsQuery+` WHERE block = 2 ORDER BY seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Block == 2 }))
				eq("block > 1", ledgerRecs(t, node, ledgerRowsQuery+` WHERE block > 1 ORDER BY block, seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Block > 1 }))
				eq("block < 2.5", ledgerRecs(t, node, ledgerRowsQuery+` WHERE block < 2.5 ORDER BY block, seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Block <= 2 }))

				// Filters the provider has no index for run over the scan.
				eq("username =", ledgerRecs(t, node, ledgerRowsQuery+` WHERE username = 'alice' ORDER BY block, seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Username == "alice" }))
				eq("username IN", ledgerRecs(t, node, ledgerRowsQuery+` WHERE username IN ('bob', 'carol') ORDER BY block, seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Username != "alice" }))
				eq("username = AND block BETWEEN", ledgerRecs(t, node, ledgerRowsQuery+` WHERE block BETWEEN 2 AND 3 AND username = 'bob' ORDER BY block, seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Block >= 2 && r.Username == "bob" }))
				eq("status =", ledgerRecs(t, node, ledgerRowsQuery+` WHERE status = 'committed' ORDER BY block, seq`),
					keepRecs(want, func(r ledgerRec) bool { return r.Status == "committed" }))
				if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger WHERE status = 'aborted'`); n != int64(len(keepRecs(want, func(r ledgerRec) bool { return r.Status == "aborted" }))) {
					t.Errorf("aborted count = %d", n)
				}

				// ORDER BY block, txid: the order TestWireDifferential reads in.
				byTxID := append([]ledgerRec(nil), want...)
				sort.SliceStable(byTxID, func(i, j int) bool {
					if byTxID[i].Block != byTxID[j].Block {
						return byTxID[i].Block < byTxID[j].Block
					}
					return byTxID[i].TxID < byTxID[j].TxID
				})
				eq("ORDER BY block, txid", ledgerRecs(t, node, ledgerRowsQuery+` ORDER BY block, txid`), byTxID)
				// No ORDER BY: emission order is the primary key's.
				byPK := append([]ledgerRec(nil), want...)
				sort.Slice(byPK, func(i, j int) bool { return byPK[i].TxID < byPK[j].TxID })
				eq("emission order", ledgerRecs(t, node, ledgerRowsQuery), byPK)

				// A historic height sees the chain as it stood.
				res, err := node.QueryAt(1, `SELECT COUNT(*) FROM sys_ledger`)
				if exp := len(keepRecs(want, func(r ledgerRec) bool { return r.Block == 1 })); err != nil || res.Rows[0][0].Int() != int64(exp) {
					t.Errorf("COUNT(*) at height 1 = %v, %v, want %d", res, err, exp)
				}

				// The provenance join of the paper's Table 3: a version's xmin
				// is the local_xid of the transaction that wrote it. local_xid
				// is node-local, so the pairs are checked against what each
				// committed call is known to have written.
				wrote := map[string]bool{} // "account id/block/txid"
				for _, w := range keepRecs(want, func(r ledgerRec) bool { return r.Status == "committed" }) {
					args := strings.Split(w.Args, ",")
					switch w.Contract {
					case "put_account":
						wrote[fmt.Sprintf("%s/%d/%s", args[0], w.Block, w.TxID)] = true
					case "transfer":
						wrote[fmt.Sprintf("%s/%d/%s", args[0], w.Block, w.TxID)] = true
						wrote[fmt.Sprintf("%s/%d/%s", args[1], w.Block, w.TxID)] = true
					case "withdraw_joint":
						wrote[fmt.Sprintf("%s/%d/%s", args[2], w.Block, w.TxID)] = true
					}
				}
				res, err = node.Query(`SELECT a.id, a.creator_block, l.txid, a.xmin, l.local_xid
					FROM accounts a PROVENANCE, sys_ledger l WHERE a.xmin = l.local_xid`)
				if err != nil {
					t.Fatal(err)
				}
				joined := map[string]bool{}
				for _, r := range res.Rows {
					joined[fmt.Sprintf("%d/%d/%s", r[0].Int(), r[1].Int(), r[2].Str())] = true
					if r[3].Int() != r[4].Int() {
						t.Errorf("join row with xmin %v and local_xid %v", r[3], r[4])
					}
					// The xid path: the version's xmin finds the one ledger row.
					if got := ledgerRecs(t, node, ledgerRowsQuery+` WHERE local_xid = $1`, r[3]); len(got) != 1 || got[0].TxID != r[2].Str() {
						t.Errorf("local_xid = %v returned %+v, want txid %s", r[3], got, r[2].Str())
					}
				}
				if !reflect.DeepEqual(joined, wrote) {
					t.Errorf("provenance join:\n got  %v\n want %v", joined, wrote)
				}
				if got := ledgerRecs(t, node, ledgerRowsQuery+` WHERE local_xid = 0`); len(got) != 0 {
					t.Errorf("local_xid = 0 returned %+v", got)
				}

				// A provenance read of the ledger itself: every row exists
				// from its block on and is never superseded.
				res, err = node.Query(`SELECT block, creator_block, deleter_block, xmax FROM sys_ledger PROVENANCE`)
				if err != nil || len(res.Rows) != len(want) {
					t.Fatalf("provenance read: %d rows, %v", len(res.Rows), err)
				}
				for _, r := range res.Rows {
					if r[1].IsNull() || r[1].Int() != r[0].Int() || !r[2].IsNull() || !r[3].IsNull() {
						t.Errorf("provenance row (block, creator, deleter, xmax) = %v", r)
					}
				}

				// The table is not a stored one: nothing of it in the store.
				if n, err := node.Store().CountVersions(ledgerTable); err != nil || n != 0 {
					t.Errorf("stored versions of %s = %d, %v", ledgerTable, n, err)
				}
				if n, err := node.Store().CountVisible(ledgerTable, node.Height()); err != nil || n != len(want) {
					t.Errorf("CountVisible = %d, %v, want %d", n, err, len(want))
				}
			})
		}
	}
}

// TestDerivedLedgerAccess pins, on a node's real sys_ledger, what the
// engine tests pin on a stand-in: contracts may not read it, nothing may
// write it, and EXPLAIN names the path that serves a query.
func TestDerivedLedgerAccess(t *testing.T) {
	tn := newTestNet(t, ledgerScenarioOpts(OrderThenExecute, storage.KindMemory))
	runLedgerScenario(t, tn, OrderThenExecute)
	node := tn.nodes[0]

	rec := storage.NewTxRecord(node.Store().BeginTx(), node.Height())
	defer node.Store().AbortTx(rec)
	contract := &engine.ExecCtx{Mode: engine.ModeContract, Height: node.Height(), Rec: rec}
	if _, err := node.Engine().ExecSQL(contract, `SELECT txid FROM sys_ledger`); !errors.Is(err, engine.ErrSchemaClass) {
		t.Errorf("contract read: err = %v, want ErrSchemaClass", err)
	}
	system := &engine.ExecCtx{Mode: engine.ModeSystem, Height: node.Height(), Rec: rec}
	if _, err := node.Engine().ExecSQL(system, `DELETE FROM sys_ledger WHERE block = 1`); !errors.Is(err, engine.ErrSchemaClass) {
		t.Errorf("system delete: err = %v, want ErrSchemaClass", err)
	}
	if _, err := node.ExecPrivate(`DROP TABLE sys_ledger`); !errors.Is(err, engine.ErrSchemaClass) {
		t.Errorf("private drop: err = %v, want ErrSchemaClass", err)
	}

	for _, c := range []struct{ sql, want string }{
		{`EXPLAIN SELECT block, status FROM sys_ledger WHERE txid = $1`, "scan sys_ledger as sys_ledger: derived point scan of sys_ledger_pkey (txid)"},
		{`EXPLAIN SELECT txid FROM sys_ledger WHERE block BETWEEN 1 AND 2 AND username = 'bob'`, "scan sys_ledger as sys_ledger: derived range scan of sys_ledger_block (block)"},
		{`EXPLAIN SELECT txid FROM sys_ledger WHERE local_xid = 7`, "scan sys_ledger as sys_ledger: derived point scan of sys_ledger_xid (local_xid)"},
		{`EXPLAIN SELECT txid FROM sys_ledger WHERE username = 'bob'`, "scan sys_ledger as sys_ledger: derived scan"},
		{`EXPLAIN SELECT a.id FROM accounts a PROVENANCE, sys_ledger l WHERE a.xmin = l.local_xid`, "inner join sys_ledger as l: nested loop over derived scan, on true"},
	} {
		res, err := node.Query(c.sql, types.NewString("x"))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, r[0].Str())
		}
		if got := strings.Join(lines, "\n"); !strings.Contains(got, c.want) {
			t.Errorf("%s:\n%s\nlacks %q", c.sql, got, c.want)
		}
	}
}

// TestLedgerRowsFollowTheSeal is the seal-lag pair: a block that is
// committed but not sealed has no ledger rows yet, and by the time a
// transaction's notification is delivered its row can be looked up.
func TestLedgerRowsFollowTheSeal(t *testing.T) {
	opts := ledgerScenarioOpts(OrderThenExecute, storage.KindMemory)
	opts.holdSeal = map[int]bool{0: true}
	tn := newTestNet(t, opts)
	node := tn.nodes[0]
	results := node.SubscribeAll()

	txs := ledgerScenarioChain(tn, OrderThenExecute)[0]
	deliverScenarioBlock(tn, node, 1, tipHash(node), txs)
	deadline := time.Now().Add(10 * time.Second)
	for node.Height() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if node.Height() != 1 || node.SealedHeight() != 0 {
		t.Fatalf("height=%d sealed=%d, want 1 and 0", node.Height(), node.SealedHeight())
	}
	lookup := `SELECT block, status FROM sys_ledger WHERE txid = $1`
	if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger`); n != 0 {
		t.Errorf("unsealed block shows %d ledger rows", n)
	}
	if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger WHERE block = 1`); n != 0 {
		t.Errorf("unsealed block shows %d ledger rows by block", n)
	}
	if res, err := node.Query(lookup, types.NewString(txs[0].ID)); err != nil || len(res.Rows) != 0 {
		t.Errorf("unsealed transaction resolves: %v, %v", res, err)
	}
	// The id is consumed all the same: the duplicate check does not wait
	// for the seal.
	if !node.ledger.seen(txs[0].ID) {
		t.Error("committed id not in the recorded-id set before the seal")
	}

	node.sealPause.Store(false)
	for range txs {
		select {
		case r := <-results:
			// What Client.lookupLedger does on a lost notification, done
			// at the earliest moment a client could: on delivery.
			res, err := node.Query(lookup, types.NewString(r.ID))
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("notified transaction %s has no ledger row: %v, %v", r.ID, res, err)
			}
			if got := res.Rows[0][1].Str() == "committed"; got != r.Committed || res.Rows[0][0].Int() != int64(r.Block) {
				t.Errorf("ledger row %v disagrees with notification %+v", res.Rows[0], r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no notification after the seal resumed")
		}
	}
}

// TestDerivedLedgerConcurrentReaders reads the ledger through every path
// while blocks commit and seal: the provider is shared by the commit
// stage, the sealer and any number of query goroutines.
func TestDerivedLedgerConcurrentReaders(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 4, BlockTimeout: 10 * time.Millisecond}})
	node := tn.nodes[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, q := range []string{
		`SELECT COUNT(*) FROM sys_ledger`,
		`SELECT COUNT(*) FROM sys_ledger WHERE block BETWEEN 2 AND 5`,
		`SELECT COUNT(*) FROM sys_ledger WHERE username = 'alice'`,
		`SELECT COUNT(*) FROM sys_ledger WHERE local_xid = 3`,
		`SELECT COUNT(*) FROM accounts a PROVENANCE, sys_ledger l WHERE a.xmin = l.local_xid`,
	} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := node.Query(q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if n := res.Rows[0][0].Int(); n < last {
					t.Errorf("%s went from %d to %d rows", q, last, n)
					return
				} else {
					last = n
				}
			}
		}(q)
	}
	var ids []string
	var chans []<-chan TxResult
	for i := 0; i < 40; i++ {
		ch, id := tn.submit("alice", "put_account", types.NewInt(int64(2000+i)), types.NewString("c"), types.NewFloat(1))
		chans, ids = append(chans, ch), append(ids, id)
	}
	var maxBlock uint64
	for i, ch := range chans {
		r := tn.await(ch)
		maxBlock = max(maxBlock, r.Block)
		// Notified means looked-up, also under load.
		if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger WHERE txid = $1`, types.NewString(ids[i])); n != 1 {
			t.Errorf("notified transaction %s has %d ledger rows", ids[i], n)
		}
	}
	close(stop)
	wg.Wait()
	tn.waitHeights(int64(maxBlock))
	for _, n := range tn.nodes {
		if got := count(t, n, `SELECT COUNT(*) FROM sys_ledger`); got != 40 {
			t.Errorf("%s: %d ledger rows, want 40", n.Name(), got)
		}
	}
}

// TestMaterialisedLedgerRefused: a store log written when sys_ledger was
// still a stored table (any commit up to dd78523) holds a table of that
// name; the node must refuse to start over it rather than serve rows that
// stop where that log stops.
func TestMaterialisedLedgerRefused(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1})
	cfg := tn.nodes[0].cfg
	cfg.Name, cfg.DataDir, cfg.Backend = "db-old", t.TempDir(), storage.KindDisk

	old, err := storage.OpenDisk(cfg.DataDir + "/" + cfg.Name + ".store.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.CreateTable(storage.Schema{Name: "sys_ledger", Class: storage.ClassSystem,
		Columns: []storage.Column{{Name: "txid", Type: types.KindString}}, PKCols: []int{0}}); err != nil {
		t.Fatal(err)
	}
	old.MarkDurable(0)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	node, err := NewNode(cfg, tn.nodes[0].signer, tn.netReg.Clone(), tn.net)
	if err == nil {
		node.Stop()
		t.Fatal("node started over a store log that materialises sys_ledger")
	}
	if !errors.Is(err, storage.ErrTableExists) || !strings.Contains(err.Error(), "sys_ledger") {
		t.Fatalf("err = %v, want ErrTableExists naming sys_ledger", err)
	}
}

// TestRetiredHashExemptFrameRefused: every store log written while
// sys_ledger was materialised marks it hash-exempt with frame kind 4.
// Nothing can honour the mark any more (the table would enter the state
// hash), so the node refuses the log, saying why, and leaves it as found.
func TestRetiredHashExemptFrameRefused(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1})
	cfg := tn.nodes[0].cfg
	cfg.Name, cfg.DataDir, cfg.Backend = "db-old", t.TempDir(), storage.KindDisk
	path := cfg.DataDir + "/" + cfg.Name + ".store.wal"
	frame := codec.NewBuf(32)
	frame.Byte(4) // the retired kind
	frame.Varint(0)
	frame.String("sys_ledger")
	lg, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendRaw(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	node, err := NewNode(cfg, tn.nodes[0].signer, tn.netReg.Clone(), tn.net)
	if err == nil {
		node.Stop()
		t.Fatal("node started over a store log that carries the retired hash-exempt mark")
	}
	for _, want := range []string{"sys_ledger", "predates the derived ledger (ADR-0008)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to say %q", err, want)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Error("the refused log was modified")
	}
}

// TestOutcomeLogFailureRaisesAlert: the outcome frame is the only
// durable home of a block's statuses, so a failed write is reported.
func TestOutcomeLogFailureRaisesAlert(t *testing.T) {
	opts := ledgerScenarioOpts(OrderThenExecute, storage.KindMemory)
	opts.dataDirs = true
	tn := newTestNet(t, opts)
	node := tn.nodes[0]
	// Blocks 1 and 2 enter the block log and commit; the log closes
	// before either is sealed, so every outcome write fails.
	node.sealPause.Store(true)
	chain := ledgerScenarioChain(tn, OrderThenExecute)
	b1 := deliverScenarioBlock(tn, node, 1, tipHash(node), chain[0])
	deliverScenarioBlock(tn, node, 2, b1.Hash, chain[1])
	for deadline := time.Now().Add(10 * time.Second); node.Height() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node committed %d blocks, want 2", node.Height())
		}
	}
	if err := node.BlockStore().Close(); err != nil {
		t.Fatal(err)
	}
	node.sealPause.Store(false)
	waitSealedHeight(t, node, 2)
	var got []string
	for _, a := range node.Alerts() {
		if strings.Contains(a, "block log") {
			got = append(got, a)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "outcome of block 1 ") {
		t.Fatalf("alerts = %q, want the first failure (block 1) once", got)
	}
}

// TestTruncatedBlockLogRefused: the seal syncs the block log before the
// storage horizon passes a block, so a crash cannot leave the store ahead
// of the blocks and outcomes the log holds. A log that lost them anyway —
// cut short, or restored from an old copy — is refused at start, naming
// the log and the first block it lacks.
func TestTruncatedBlockLogRefused(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, backend: storage.KindDisk, dataDirs: true,
		cfg: ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond}})
	var maxBlock uint64
	for i := 0; i < 8; i++ {
		ch, _ := tn.submit("alice", "put_account", types.NewInt(int64(600+i)), types.NewString("x"), types.NewFloat(1))
		maxBlock = max(maxBlock, tn.await(ch).Block)
	}
	tn.waitHeights(int64(maxBlock))

	victim := tn.nodes[1]
	cfg := victim.cfg
	victim.Stop()
	path := cfg.DataDir + "/" + cfg.Name + ".blocks"
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	// What is left: the blocks and outcomes before the cut.
	left, err := ledger.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept uint64
	for _, ok := left.Outcome(1); ok; _, ok = left.Outcome(kept + 1) {
		kept++
	}
	left.Close()
	if kept >= maxBlock {
		t.Fatalf("the cut kept every outcome (%d of %d)", kept, maxBlock)
	}

	restarted, err := NewNode(cfg, victim.signer, tn.netReg.Clone(), tn.net)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()
	if err := restarted.Bootstrap(Genesis{Certs: genesisCerts(tn), SQL: testGenesisSQL, Contracts: testContracts}); err != nil {
		t.Fatal(err)
	}
	err = restarted.Start()
	if err == nil {
		t.Fatalf("started over a block log holding %d of the %d durable blocks' outcomes", kept, maxBlock)
	}
	for _, want := range []string{path, fmt.Sprintf("no outcome of block %d,", kept+1)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %q", err, want)
		}
	}
}

// TestOldDataDirRefused: a data dir written before the one block log —
// with a separate outcome log, or with a chain or storage log whose
// frames carry no header checksum — is refused by name, and its files
// are left as found.
func TestOldDataDirRefused(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1})
	b := tn.buildSignedBlock(1, ledger.Hash{}, nil)
	oldFrame := func(payload []byte, crc bool) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		if crc {
			out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		}
		return append(out, payload...)
	}
	for _, tc := range []struct {
		suffix string
		data   []byte
	}{
		{".wal", oldFrame([]byte("an outcome record"), true)},
		{".blocks", oldFrame(b.Encode(), false)},
		{".store.wal", oldFrame([]byte{6, 0}, true)}, // a height frame
	} {
		t.Run(tc.suffix, func(t *testing.T) {
			cfg := tn.nodes[0].cfg
			cfg.Name, cfg.DataDir, cfg.Backend = "db-old", t.TempDir(), storage.KindDisk
			path := cfg.DataDir + "/" + cfg.Name + tc.suffix
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			node, err := NewNode(cfg, tn.nodes[0].signer, tn.netReg.Clone(), tn.net)
			if err == nil {
				node.Stop()
				t.Fatalf("node started over an old %s", tc.suffix)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("err = %v, want it to name %s", err, path)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, tc.data) {
				t.Error("the refused file was modified")
			}
		})
	}
}

// assertLedgerAfterRestart checks what a restart owes the ledger: every
// transaction of the chain has its row again, a pre-restart id resolves
// the way Client.lookupLedger asks, rows of blocks restored from disk
// read NULL in local_xid (restored versions carry a synthetic xmin), and
// rows of blocks executed by this process join on xmin.
func assertLedgerAfterRestart(t *testing.T, node *Node, knownID string, restored int64) {
	t.Helper()
	var chainTxs int64
	for n := uint64(1); n <= node.BlockStore().Height(); n++ {
		b, err := node.BlockStore().Get(n)
		if err != nil {
			t.Fatal(err)
		}
		chainTxs += int64(len(b.Txs))
	}
	if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger`); n != chainTxs {
		t.Errorf("COUNT(*) = %d after restart, the chain has %d transactions", n, chainTxs)
	}
	res, err := node.Query(`SELECT block, status FROM sys_ledger WHERE txid = $1`, types.NewString(knownID))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Str() != "committed" {
		t.Errorf("pre-restart id %s resolves to %v, %v", knownID, res, err)
	}
	if n := count(t, node, `SELECT COUNT(*) FROM sys_ledger WHERE block <= $1 AND local_xid IS NOT NULL`, types.NewInt(restored)); n != 0 {
		t.Errorf("%d rows of the restored prefix (blocks <= %d) carry a local_xid", n, restored)
	}
	executed := count(t, node, `SELECT COUNT(*) FROM sys_ledger WHERE block > $1 AND status = 'committed'`, types.NewInt(restored))
	if n := count(t, node, `SELECT COUNT(DISTINCT l.txid) FROM accounts a PROVENANCE, sys_ledger l WHERE a.xmin = l.local_xid`); n != executed {
		t.Errorf("%d ledger rows join account versions on xmin, want the %d committed above block %d", n, executed, restored)
	}
}

// BenchmarkLedgerQuery reads the derived sys_ledger over 1000 blocks of
// ten transactions. Every row it yields comes from a block the block
// store decodes on demand: a point lookup by transaction id (what
// Client.lookupLedger pays on a retry) and a full scan.
func BenchmarkLedgerQuery(b *testing.B) {
	const blocks, perBlock = 1000, 10
	tn := newTestNet(b, ledgerScenarioOpts(OrderThenExecute, storage.KindMemory))
	node := tn.nodes[0]
	var ids []types.Value
	prev := tipHash(node)
	for n := 1; n <= blocks; n++ {
		txs := make([]*ledger.Transaction, perBlock)
		for i := range txs {
			args := []types.Value{types.NewInt(int64(n*perBlock + i)), types.NewString("o"), types.NewFloat(1)}
			txs[i] = tn.buildTx("alice", "put_account", args, 0)
			ids = append(ids, types.NewString(txs[i].ID))
		}
		prev = deliverScenarioBlock(tn, node, uint64(n), prev, txs).Hash
	}
	waitSealedHeight(b, node, blocks)
	b.Run("point", func(b *testing.B) {
		for i := range b.N {
			res, err := node.Query(`SELECT status FROM sys_ledger WHERE txid = $1`, ids[i%len(ids)])
			if err != nil || len(res.Rows) != 1 {
				b.Fatalf("point lookup: %v, %v", res, err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for range b.N {
			if n := count(b, node, `SELECT COUNT(*) FROM sys_ledger`); n != blocks*perBlock {
				b.Fatalf("scan counted %d rows, want %d", n, blocks*perBlock)
			}
		}
	})
}
