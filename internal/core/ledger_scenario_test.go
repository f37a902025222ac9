package core

import (
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// The ledger scenario is one fixed chain per flow, built by hand so that
// every column of every sys_ledger row — transaction ids, block and
// position, commit time — is a pure function of this file: no orderer
// cuts the blocks and no clock stamps them. It covers what the table has
// to get right: an aborted transaction, a read-only call, a duplicate id
// inside one block and across blocks (only the first occurrence is
// recorded), multi-argument calls whose arguments need SQL quoting, and,
// under execute-order, a transaction that never got an execution record
// (impossible snapshot) and a serialization abort.

// ledgerT0 is the commit time of the scenario's first block (unix ns).
const ledgerT0 = int64(1_700_000_000_000_000_000)

// readBalanceContract only reads: its ledger row is a committed call
// that wrote nothing.
const readBalanceContract = `CREATE FUNCTION read_balance(p_id BIGINT) RETURNS DOUBLE AS $$
	DECLARE
		bal DOUBLE;
	BEGIN
		SELECT balance INTO bal FROM accounts WHERE id = p_id;
		RETURN bal;
	END;
	$$`

// ledgerScenarioOpts is the one-node network the scenario runs on: the
// orderer never cuts a block of its own.
func ledgerScenarioOpts(flow Flow, backend storage.Kind) netOpts {
	return netOpts{flow: flow, nNodes: 1, backend: backend, dataDirs: backend == storage.KindDisk,
		cfg: ordering.Config{BlockSize: 100, BlockTimeout: time.Hour}}
}

// ledgerScenarioChain returns the scenario's blocks as transaction lists.
func ledgerScenarioChain(tn *testNet, flow Flow) [][]*ledger.Transaction {
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	// snap is the snapshot a transaction of block n carries: order-then-
	// execute ignores it (clients send 0), execute-order reads at n-1.
	snap := func(n int64) int64 {
		if flow == ExecuteOrder {
			return n - 1
		}
		return 0
	}
	put := func(user string, n int64, id int64, owner string, bal float64) *ledger.Transaction {
		return tn.buildTx(user, "put_account", []types.Value{i(id), s(owner), f(bal)}, snap(n))
	}
	transfer := func(user string, n int64, from, to int64, amt float64) *ledger.Transaction {
		return tn.buildTx(user, "transfer", []types.Value{i(from), i(to), f(amt)}, snap(n))
	}
	put10 := put("alice", 1, 10, "x", 1.5)
	put11 := put("carol", 2, 11, "in-block", 2)
	b1 := []*ledger.Transaction{
		put10,
		transfer("bob", 1, 1, 2, 25.5),
		transfer("carol", 1, 1, 2, 1000), // aborts: insufficient funds
	}
	b2 := []*ledger.Transaction{
		tn.buildTx("alice", "read_balance", []types.Value{i(1)}, snap(2)),
		put10,        // duplicate of a block-1 id
		put11, put11, // duplicate inside the block
		transfer("bob", 2, 2, 3, 0.25),
	}
	b3 := []*ledger.Transaction{
		put("bob", 3, 12, "it's", -0.5),
		tn.buildTx("carol", "withdraw_joint", []types.Value{i(1), i(2), i(1), f(10)}, snap(3)),
		transfer("alice", 3, 3, 1, 1e3), // aborts: insufficient funds
	}
	if flow == ExecuteOrder {
		// A snapshot at the block's own height can never be read: the
		// transaction fails without an execution record. And two transfers
		// out of one account at one snapshot: the second loses.
		b3 = append(b3,
			tn.buildTx("alice", "read_balance", []types.Value{i(2)}, 3),
			transfer("alice", 3, 2, 3, 1),
			transfer("bob", 3, 2, 1, 2))
	}
	return [][]*ledger.Transaction{b1, b2, b3}
}

// tipHash is the hash of the node's newest block (zero before block 1).
func tipHash(node *Node) ledger.Hash {
	bs := node.BlockStore()
	if bs.Height() == 0 {
		return ledger.Hash{}
	}
	b, err := bs.Get(bs.Height())
	if err != nil {
		panic(err)
	}
	return b.Hash
}

// deliverScenarioBlock signs block n over txs with the scenario's fixed
// timestamp and hands it to the node as its orderer would.
func deliverScenarioBlock(tn *testNet, node *Node, n uint64, prev ledger.Hash, txs []*ledger.Transaction) *ledger.Block {
	b := &ledger.Block{Number: n, PrevHash: prev, Timestamp: ledgerT0 + int64(n), Txs: txs}
	b.ComputeHash()
	ord := tn.ordererSigners[0]
	b.Sigs = []ledger.BlockSig{{Orderer: ord.Name, Signature: ord.Sign(b.Hash[:])}}
	node.onBlock(simnet.Message{From: ord.Name, To: node.Name(), Kind: ordering.KindBlock, Payload: b.Encode()})
	return b
}

// waitSealedHeight blocks until the node has sealed block h.
func waitSealedHeight(t testing.TB, node *Node, h int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for node.SealedHeight() < h {
		if time.Now().After(deadline) {
			t.Fatalf("node sealed %d, want %d", node.SealedHeight(), h)
		}
		time.Sleep(time.Millisecond)
	}
}

// runLedgerScenario drives the scenario through node 0 and returns the
// blocks delivered.
func runLedgerScenario(t *testing.T, tn *testNet, flow Flow) []*ledger.Block {
	t.Helper()
	node := tn.nodes[0]
	var blocks []*ledger.Block
	prev := tipHash(node)
	for k, txs := range ledgerScenarioChain(tn, flow) {
		b := deliverScenarioBlock(tn, node, uint64(k+1), prev, txs)
		prev = b.Hash
		blocks = append(blocks, b)
	}
	waitSealedHeight(t, node, int64(len(blocks)))
	return blocks
}
