package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bcrdb/internal/engine"
	"bcrdb/internal/identity"
	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/ordering/kafka"
	"bcrdb/internal/simnet"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// testNet wires N peers, one kafka-style ordering node per peer, and a
// set of client identities over a fast simulated LAN.
type testNet struct {
	t              testing.TB
	net            *simnet.Network
	topic          *kafka.Topic
	orderers       []*kafka.Orderer
	ordererSigners []*identity.Signer
	nodes          []*Node
	clients        map[string]*identity.Signer
	netReg         *identity.Registry
	dataDirs       []string

	// Results node 0 publishes on SubscribeAll, handed to whoever watches
	// the transaction id (follow).
	waitMu  sync.Mutex
	waiters map[string][]chan TxResult
}

var testGenesisSQL = []string{
	`CREATE TABLE accounts (id BIGINT PRIMARY KEY, owner TEXT, balance DOUBLE)`,
	`INSERT INTO accounts VALUES (1, 'alice', 100.0), (2, 'bob', 100.0), (3, 'carol', 100.0)`,
}

var testContracts = []string{
	`CREATE FUNCTION put_account(p_id BIGINT, p_owner TEXT, p_balance DOUBLE) RETURNS VOID AS $$
	BEGIN
		INSERT INTO accounts VALUES (p_id, p_owner, p_balance);
	END;
	$$`,
	`CREATE FUNCTION transfer(p_from BIGINT, p_to BIGINT, p_amt DOUBLE) RETURNS VOID AS $$
	DECLARE
		bal DOUBLE;
	BEGIN
		SELECT balance INTO bal FROM accounts WHERE id = p_from;
		IF bal IS NULL THEN
			RAISE EXCEPTION 'no account';
		END IF;
		IF bal < p_amt THEN
			RAISE EXCEPTION 'insufficient funds';
		END IF;
		UPDATE accounts SET balance = balance - p_amt WHERE id = p_from;
		UPDATE accounts SET balance = balance + p_amt WHERE id = p_to;
	END;
	$$`,
	`CREATE FUNCTION withdraw_joint(p_a BIGINT, p_b BIGINT, p_from BIGINT, p_amt DOUBLE) RETURNS VOID AS $$
	DECLARE
		a_bal DOUBLE;
		b_bal DOUBLE;
	BEGIN
		SELECT balance INTO a_bal FROM accounts WHERE id = p_a;
		SELECT balance INTO b_bal FROM accounts WHERE id = p_b;
		IF a_bal + b_bal < p_amt THEN
			RAISE EXCEPTION 'joint balance too low';
		END IF;
		UPDATE accounts SET balance = balance - p_amt WHERE id = p_from;
	END;
	$$`,
	readBalanceContract,
}

type netOpts struct {
	flow            Flow
	serial          bool
	nNodes          int
	cfg             ordering.Config
	dataDirs        bool
	backend         storage.Kind // "" = memory
	checkpointEvery uint64
	// holdSeal lists node indexes whose sealer is parked before Start:
	// their blocks commit but never seal, simulating a crash with
	// unsealed blocks when combined with crashForTest.
	holdSeal map[int]bool
}

func newTestNet(t testing.TB, o netOpts) *testNet {
	t.Helper()
	if o.nNodes == 0 {
		o.nNodes = 3
	}
	if o.cfg.BlockSize == 0 {
		o.cfg = ordering.Config{BlockSize: 10, BlockTimeout: 20 * time.Millisecond}
	}
	tn := &testNet{
		t:       t,
		net:     simnet.New(simnet.Profile{Latency: 100 * time.Microsecond}),
		topic:   kafka.NewTopic(),
		clients: make(map[string]*identity.Signer),
		waiters: make(map[string][]chan TxResult),
	}
	t.Cleanup(tn.net.Close)

	// Client identities.
	var certs []CertEntry
	for _, name := range []string{"alice", "bob", "carol"} {
		s, err := identity.NewSigner(name, "org1", identity.RoleClient, bytes.NewReader(clientSeed(name)))
		if err != nil {
			t.Fatal(err)
		}
		tn.clients[name] = s
		certs = append(certs, CertEntry{Name: name, Org: "org1", Role: "client", PubKey: s.PubKey})
	}
	adm, _ := identity.NewSigner("admin1", "org1", identity.RoleAdmin, nil)
	tn.clients["admin1"] = adm
	certs = append(certs, CertEntry{Name: "admin1", Org: "org1", Role: "admin", PubKey: adm.PubKey})

	// Node-level registry: peers + orderers.
	netReg := identity.NewRegistry()
	tn.netReg = netReg
	var peerNames, ordererNames []string
	var peerSigners, ordererSigners []*identity.Signer
	for i := 0; i < o.nNodes; i++ {
		ps, _ := identity.NewSigner(fmt.Sprintf("db%d", i), fmt.Sprintf("org%d", i+1), identity.RolePeer, nil)
		os2, _ := identity.NewSigner(fmt.Sprintf("ord%d", i), fmt.Sprintf("org%d", i+1), identity.RoleOrderer, nil)
		peerSigners = append(peerSigners, ps)
		ordererSigners = append(ordererSigners, os2)
		peerNames = append(peerNames, ps.Name)
		ordererNames = append(ordererNames, os2.Name)
		_ = netReg.Register(ps.Public())
		_ = netReg.Register(os2.Public())
	}

	genesis := Genesis{Certs: certs, SQL: testGenesisSQL, Contracts: testContracts}
	tn.ordererSigners = ordererSigners

	for i := 0; i < o.nNodes; i++ {
		cfg := Config{
			Name:            peerNames[i],
			Org:             fmt.Sprintf("org%d", i+1),
			Flow:            o.flow,
			SerialExecution: o.serial,
			Orderers:        []string{ordererNames[i]},
			Peers:           peerNames,
			CheckpointEvery: o.checkpointEvery,
		}
		if o.dataDirs {
			cfg.DataDir = t.TempDir()
			tn.dataDirs = append(tn.dataDirs, cfg.DataDir)
		}
		cfg.Backend = o.backend
		node, err := NewNode(cfg, peerSigners[i], netReg.Clone(), tn.net)
		if err != nil {
			t.Fatal(err)
		}
		if o.holdSeal[i] {
			node.sealPause.Store(true)
		}
		if err := node.Bootstrap(genesis); err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		tn.nodes = append(tn.nodes, node)
		t.Cleanup(node.Stop)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go tn.follow(tn.nodes[0].SubscribeAll(), stop)

	for i := 0; i < o.nNodes; i++ {
		ord, err := kafka.NewOrderer(ordererNames[i], ordererSigners[i], tn.topic, tn.net,
			[]string{peerNames[i]}, o.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn.orderers = append(tn.orderers, ord)
		t.Cleanup(ord.Stop)
	}
	return tn
}

// buildTx creates a signed transaction for the given flow.
func (tn *testNet) buildTx(user, contract string, args []types.Value, snapshot int64) *ledger.Transaction {
	tn.t.Helper()
	signer := tn.clients[user]
	if signer == nil {
		tn.t.Fatalf("unknown client %s", user)
	}
	tx := &ledger.Transaction{
		ID:       ledger.ComputeID(user, contract, args, snapshot),
		Username: user,
		Contract: contract,
		Args:     args,
		Snapshot: snapshot,
	}
	tx.Signature = signer.Sign(tx.SignBytes())
	return tx
}

// submit sends a transaction and returns a result channel from node 0.
func (tn *testNet) submit(user, contract string, args ...types.Value) (<-chan TxResult, string) {
	tn.t.Helper()
	var tx *ledger.Transaction
	if tn.nodes[0].cfg.Flow == ExecuteOrder {
		tx = tn.buildTx(user, contract, args, tn.nodes[0].Height())
	} else {
		tx = tn.buildTx(user, contract, args, 0)
	}
	ch := tn.watch(tx.ID)
	if tn.nodes[0].cfg.Flow == ExecuteOrder {
		tn.submitTo(0, tx)
	} else {
		tn.order(tx)
	}
	return ch, tx.ID
}

// order sends tx to orderer 0 as an order-then-execute client does.
func (tn *testNet) order(tx *ledger.Transaction) {
	if err := tn.net.Inject(tx.Username, tn.ordererSigners[0].Name, ordering.KindSubmit, ledger.MarshalTransaction(tx)); err != nil {
		tn.t.Error(err)
	}
}

// submitTo hands node i a client submission (execute-order flow) without
// the network hop.
func (tn *testNet) submitTo(i int, tx *ledger.Transaction) {
	n := tn.nodes[i]
	n.onSubmit(simnet.Message{From: tx.Username, To: n.cfg.Name, Kind: KindSubmit,
		Payload: ledger.MarshalTransaction(tx)}, true)
}

// watch returns a channel receiving the result node 0 publishes for the
// transaction id. Register before submitting.
func (tn *testNet) watch(txID string) <-chan TxResult {
	ch := make(chan TxResult, 1)
	tn.waitMu.Lock()
	tn.waiters[txID] = append(tn.waiters[txID], ch)
	tn.waitMu.Unlock()
	return ch
}

// follow hands every result of node 0's commit subscription to the
// channels watching its id.
func (tn *testNet) follow(all <-chan TxResult, stop <-chan struct{}) {
	for {
		select {
		case r := <-all:
			tn.waitMu.Lock()
			for _, ch := range tn.waiters[r.ID] {
				ch <- r // buffered, one result per watcher
			}
			delete(tn.waiters, r.ID)
			tn.waitMu.Unlock()
		case <-stop:
			return
		}
	}
}

func (tn *testNet) await(ch <-chan TxResult) TxResult {
	tn.t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		tn.t.Fatal("transaction result timeout")
		return TxResult{}
	}
}

// waitHeights blocks until every node has committed AND sealed block h —
// sealing is when sys_ledger rows and checkpoint state become visible,
// so tests reading those after this call stay deterministic under the
// pipelined processor.
func (tn *testNet) waitHeights(h int64) {
	tn.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range tn.nodes {
			if n.Height() < h || n.SealedHeight() < h {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	heights := make([]int64, len(tn.nodes))
	for i, n := range tn.nodes {
		heights[i] = n.Height()
	}
	tn.t.Fatalf("nodes never reached height %d: %v", h, heights)
}

// assertConsistent compares state hashes across all nodes at height h.
func (tn *testNet) assertConsistent(h int64) {
	tn.t.Helper()
	ref := tn.nodes[0].StateHash(h)
	for i, n := range tn.nodes[1:] {
		if got := n.StateHash(h); got != ref {
			tn.t.Fatalf("node %d state hash differs at height %d", i+1, h)
		}
	}
}

// --- tests -------------------------------------------------------------------------

func TestOrderThenExecuteBasic(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute})
	var chans []<-chan TxResult
	for i := 0; i < 10; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(100+i)), types.NewString("acct"), types.NewFloat(1))
		chans = append(chans, ch)
	}
	var maxBlock uint64
	for _, ch := range chans {
		r := tn.await(ch)
		if !r.Committed {
			t.Fatalf("tx aborted: %s", r.Reason)
		}
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	tn.waitHeights(int64(maxBlock))
	tn.assertConsistent(int64(maxBlock))

	res, err := tn.nodes[1].Query(`SELECT COUNT(*) FROM accounts`)
	if err != nil || res.Rows[0][0].Int() != 13 {
		t.Fatalf("accounts = %v, %v", res.Rows, err)
	}
	// Ledger rows recorded.
	res, err = tn.nodes[2].Query(`SELECT COUNT(*) FROM sys_ledger WHERE status = 'committed'`)
	if err != nil || res.Rows[0][0].Int() != 10 {
		t.Fatalf("ledger rows = %v, %v", res.Rows, err)
	}
}

func TestExecuteOrderBasic(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: ExecuteOrder})
	var chans []<-chan TxResult
	for i := 0; i < 10; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(200+i)), types.NewString("acct"), types.NewFloat(2))
		chans = append(chans, ch)
	}
	var maxBlock uint64
	for _, ch := range chans {
		r := tn.await(ch)
		if !r.Committed {
			t.Fatalf("tx aborted: %s", r.Reason)
		}
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	tn.waitHeights(int64(maxBlock))
	tn.assertConsistent(int64(maxBlock))
}

func TestTransfersConserveTotal(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		flow := flow
		name := map[Flow]string{OrderThenExecute: "OE", ExecuteOrder: "EO"}[flow]
		t.Run(name, func(t *testing.T) {
			tn := newTestNet(t, netOpts{flow: flow})
			users := []string{"alice", "bob", "carol"}
			var chans []<-chan TxResult
			for i := 0; i < 30; i++ {
				from := int64(i%3 + 1)
				to := (from % 3) + 1
				// The fractional part makes every transaction's arguments —
				// and therefore its id — unique: the ordering service drops
				// duplicate ids, which would leave an await hanging.
				ch, _ := tn.submit(users[i%3], "transfer",
					types.NewInt(from), types.NewInt(to), types.NewFloat(float64(i%7+1)+float64(i)/100))
				chans = append(chans, ch)
			}
			var maxBlock uint64
			commits := 0
			for _, ch := range chans {
				r := tn.await(ch)
				if r.Block > maxBlock {
					maxBlock = r.Block
				}
				if r.Committed {
					commits++
				}
			}
			if commits == 0 {
				t.Fatal("no transfer committed")
			}
			tn.waitHeights(int64(maxBlock))
			tn.assertConsistent(int64(maxBlock))
			res, err := tn.nodes[0].Query(`SELECT SUM(balance) FROM accounts`)
			if err != nil || res.Rows[0][0].Float() != 300.0 {
				t.Fatalf("total balance = %v, %v (money created or destroyed)", res.Rows, err)
			}
		})
	}
}

func TestWriteSkewPrevented(t *testing.T) {
	// Two transactions each read accounts (1, 2) — joint balance 200 —
	// and withdraw 150 from different accounts. Serially only one can
	// succeed; snapshot isolation alone would commit both.
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		flow := flow
		name := map[Flow]string{OrderThenExecute: "OE", ExecuteOrder: "EO"}[flow]
		t.Run(name, func(t *testing.T) {
			tn := newTestNet(t, netOpts{flow: flow,
				cfg: ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond}})
			ch1, _ := tn.submit("alice", "withdraw_joint",
				types.NewInt(1), types.NewInt(2), types.NewInt(1), types.NewFloat(150))
			ch2, _ := tn.submit("bob", "withdraw_joint",
				types.NewInt(1), types.NewInt(2), types.NewInt(2), types.NewFloat(150))
			r1 := tn.await(ch1)
			r2 := tn.await(ch2)
			if r1.Committed && r2.Committed {
				t.Fatal("write skew: both withdrawals committed")
			}
			if !r1.Committed && !r2.Committed {
				t.Logf("both aborted (allowed, conservative): %s / %s", r1.Reason, r2.Reason)
			}
			max := r1.Block
			if r2.Block > max {
				max = r2.Block
			}
			tn.waitHeights(int64(max))
			tn.assertConsistent(int64(max))
			// Joint invariant holds.
			res, _ := tn.nodes[0].Query(`SELECT SUM(balance) FROM accounts WHERE id IN (1, 2)`)
			if res.Rows[0][0].Float() < 0 {
				t.Fatalf("joint balance negative: %v", res.Rows[0][0])
			}
		})
	}
}

func TestDuplicateTransactionRejected(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond}})
	args := []types.Value{types.NewInt(500), types.NewString("dup"), types.NewFloat(1)}
	tx1 := tn.buildTx("alice", "put_account", args, 0)
	ch1 := tn.watch(tx1.ID)
	tn.order(tx1)
	r1 := tn.await(ch1)
	if !r1.Committed {
		t.Fatalf("first submission aborted: %s", r1.Reason)
	}
	// Same ID submitted again (the cutter dedupes per-stream; craft a
	// block-level duplicate by re-submitting after the first committed —
	// the cutter's seen-set drops it, so instead verify via the ledger
	// duplicate check with a fresh cutter stream: submit an identical
	// invocation whose ComputeID collides).
	tx2 := tn.buildTx("alice", "put_account", args, 0)
	if tx2.ID != tx1.ID {
		t.Fatal("identical invocations should produce identical ids")
	}
	ch2 := tn.watch(tx2.ID)
	tn.order(tx2)
	select {
	case r2 := <-ch2:
		// If the ordering service let it through, the peers must abort it.
		if r2.Committed {
			t.Fatal("duplicate id committed twice")
		}
	case <-time.After(300 * time.Millisecond):
		// Dropped by the cutter dedup: equally acceptable.
	}
	res, _ := tn.nodes[0].Query(`SELECT COUNT(*) FROM accounts WHERE id = 500`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCheckpointAgreementAndNoAlerts(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond}})
	var chans []<-chan TxResult
	for i := 0; i < 8; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(600+i)), types.NewString("x"), types.NewFloat(1))
		chans = append(chans, ch)
	}
	var maxBlock uint64
	for _, ch := range chans {
		r := tn.await(ch)
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	tn.waitHeights(int64(maxBlock))
	// Checkpoints ride in subsequent blocks; push a few more txs so they
	// circulate.
	for i := 0; i < 4; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(700+i)), types.NewString("x"), types.NewFloat(1))
		tn.await(ch)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if tn.nodes[0].LastCheckpoint() >= maxBlock {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tn.nodes[0].LastCheckpoint() < maxBlock {
		t.Fatalf("checkpoint never reached block %d (at %d)", maxBlock, tn.nodes[0].LastCheckpoint())
	}
	for i, n := range tn.nodes {
		if alerts := n.Alerts(); len(alerts) > 0 {
			t.Fatalf("node %d raised alerts: %v", i, alerts)
		}
	}
}

func TestTamperedReplicaDetected(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond}})

	// Corrupt node 2's state directly (security §3.5(5)): a malicious
	// update outside consensus.
	rogue := tn.nodes[2]
	st := rogue.Store()
	rec := storage.NewTxRecord(st.BeginTx(), rogue.Height())
	ctx := &engine.ExecCtx{Mode: engine.ModeSystem, Height: rogue.Height(), Rec: rec}
	if _, err := rogue.Engine().ExecSQL(ctx, `UPDATE accounts SET balance = 9999 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	st.CommitTx(rec, rogue.Height())

	// Subsequent transfers touching account 1 now produce divergent
	// write sets on the rogue node.
	var maxBlock uint64
	for i := 0; i < 4; i++ {
		ch, _ := tn.submit("alice", "transfer",
			types.NewInt(1), types.NewInt(2), types.NewFloat(float64(i+1)))
		r := tn.await(ch)
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	// Keep traffic flowing so checkpoints circulate.
	deadline := time.Now().Add(10 * time.Second)
	alerted := false
	for i := 0; time.Now().Before(deadline) && !alerted; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(800+i)), types.NewString("x"), types.NewFloat(1))
		tn.await(ch)
		for _, n := range []*Node{tn.nodes[0], tn.nodes[1]} {
			for _, a := range n.Alerts() {
				if strings.Contains(a, "db2") {
					alerted = true
				}
			}
		}
	}
	if !alerted {
		t.Fatal("honest nodes never detected the tampered replica")
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	testRecoveryAfterRestart(t, storage.KindMemory)
}

// TestDiskBackendRecoveryAfterRestart is the same crash/restart scenario
// on the disk backend: the restarted node's state comes back from
// storage-WAL replay rather than chain re-execution, and must reach the
// identical state hash as a peer that never went down.
func TestDiskBackendRecoveryAfterRestart(t *testing.T) {
	testRecoveryAfterRestart(t, storage.KindDisk)
}

func testRecoveryAfterRestart(t *testing.T, backend storage.Kind) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, dataDirs: true, backend: backend,
		cfg: ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond}})
	var maxBlock uint64
	for i := 0; i < 6; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(900+i)), types.NewString("x"), types.NewFloat(1))
		r := tn.await(ch)
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	tn.waitHeights(int64(maxBlock))
	want := tn.nodes[0].StateHash(int64(maxBlock))

	// Crash node 1 and submit more traffic while it is down.
	crashed := tn.nodes[1]
	dir := tn.dataDirs[1]
	crashed.Stop()
	var lastBlock uint64
	for i := 0; i < 4; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(950+i)), types.NewString("x"), types.NewFloat(1))
		r := tn.await(ch)
		if r.Block > lastBlock {
			lastBlock = r.Block
		}
	}

	// Restart from the same data directory: replay + catch-up (§3.6).
	cfg := crashed.cfg
	cfg.DataDir = dir
	restarted, err := NewNode(cfg, crashed.signer, tn.netReg.Clone(), tn.net)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Bootstrap(Genesis{Certs: genesisCerts(tn), SQL: testGenesisSQL, Contracts: testContracts}); err != nil {
		t.Fatal(err)
	}
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Stop)

	// Replay restores the pre-crash state...
	if got := restarted.StateHash(int64(maxBlock)); got != want {
		t.Fatal("replayed state differs from pre-crash state")
	}
	// ...and catch-up brings in the blocks missed while down.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && restarted.Height() < int64(lastBlock) {
		time.Sleep(5 * time.Millisecond)
	}
	if restarted.Height() < int64(lastBlock) {
		t.Fatalf("catch-up stalled at %d, want %d", restarted.Height(), lastBlock)
	}
	if restarted.StateHash(int64(lastBlock)) != tn.nodes[0].StateHash(int64(lastBlock)) {
		t.Fatal("state divergence after catch-up")
	}
	if backend == storage.KindDisk {
		// The restored prefix must come back via storage-WAL replay, not
		// chain re-execution: only the catch-up window is processed.
		if got := restarted.Metrics().BlocksProcessed.Load(); got > int64(lastBlock)-int64(maxBlock) {
			t.Fatalf("disk-backed restart re-executed %d blocks, want at most %d",
				got, int64(lastBlock)-int64(maxBlock))
		}
	}
}

// clientSeed is the Ed25519 seed of a test client's key, fixed so a test
// can sign as the client outside its Signer.
func clientSeed(name string) []byte {
	seed := sha256.Sum256([]byte("core test client " + name))
	return seed[:]
}

func genesisCerts(tn *testNet) []CertEntry {
	var out []CertEntry
	for _, name := range []string{"alice", "bob", "carol"} {
		s := tn.clients[name]
		out = append(out, CertEntry{Name: name, Org: "org1", Role: "client", PubKey: s.PubKey})
	}
	out = append(out, CertEntry{Name: "admin1", Org: "org1", Role: "admin", PubKey: tn.clients["admin1"].PubKey})
	return out
}

func TestMissingTransactionsExecutedAtCommit(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: ExecuteOrder,
		cfg: ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond}})
	// Cut node 2 off from peer forwarding (but not from its orderer):
	// blocks will arrive with transactions it never saw (§3.4.3).
	tn.net.Partition("db0", "db2")

	ch, _ := tn.submit("alice", "put_account",
		types.NewInt(1000), types.NewString("x"), types.NewFloat(1))
	r := tn.await(ch)
	if !r.Committed {
		t.Fatalf("tx aborted: %s", r.Reason)
	}
	tn.waitHeights(int64(r.Block))
	tn.assertConsistent(int64(r.Block))
	if tn.nodes[2].Metrics().MissingTxs.Load() == 0 {
		t.Fatal("node 2 should have recorded missing transactions")
	}
}

func TestSerialExecutionModeConsistent(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, serial: true})
	var chans []<-chan TxResult
	for i := 0; i < 10; i++ {
		ch, _ := tn.submit("alice", "transfer",
			types.NewInt(1), types.NewInt(2), types.NewFloat(1))
		chans = append(chans, ch)
		// Distinct ids need distinct args; alternate direction.
		ch2, _ := tn.submit("bob", "transfer",
			types.NewInt(2), types.NewInt(3), types.NewFloat(float64(i+1)))
		chans = append(chans, ch2)
	}
	var maxBlock uint64
	for _, ch := range chans {
		r := tn.await(ch)
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	tn.waitHeights(int64(maxBlock))
	tn.assertConsistent(int64(maxBlock))
	res, _ := tn.nodes[0].Query(`SELECT SUM(balance) FROM accounts`)
	if res.Rows[0][0].Float() != 300.0 {
		t.Fatalf("total = %v", res.Rows[0][0])
	}
}

func TestProvenanceAcrossLedger(t *testing.T) {
	// Table 3-style audit: historical versions joined with sys_ledger.
	tn := newTestNet(t, netOpts{flow: OrderThenExecute})
	ch, _ := tn.submit("alice", "transfer", types.NewInt(1), types.NewInt(2), types.NewFloat(10))
	r := tn.await(ch)
	if !r.Committed {
		t.Fatalf("transfer aborted: %s", r.Reason)
	}
	tn.waitHeights(int64(r.Block))
	// All historical versions of account 1, with the user who changed them.
	res, err := tn.nodes[0].Query(`
		SELECT a.balance, l.username FROM accounts a PROVENANCE, sys_ledger l
		WHERE a.id = 1 AND a.xmin = l.local_xid ORDER BY a.balance`)
	if err != nil {
		t.Fatal(err)
	}
	// The updated version (balance 90) was created by alice's tx.
	foundUpdated := false
	for _, row := range res.Rows {
		if row[0].Float() == 90.0 && row[1].Str() == "alice" {
			foundUpdated = true
		}
	}
	if !foundUpdated {
		t.Fatalf("provenance join missing updated version: %v", res.Rows)
	}
}
