package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// crashForTest simulates a crash: the node stops as Stop does, except
// that the sealer drops its queue (unsealed blocks stay unsealed), and
// releases its files so a restart can take over the data directory.
func (n *Node) crashForTest() {
	n.stopOnce.Do(func() {
		close(n.stopped)
		n.ep.Unregister()
		n.wg.Wait()
		n.execQ.close()
		n.execWG.Wait()
		n.verifyWG.Wait()
		close(n.sealAbort) // sealer drops queued tasks instead of sealing
		close(n.sealCh)
		n.sealWG.Wait()
		n.closeFiles()
	})
}

// driveMixedTraffic submits puts and (conflict-prone) transfers and
// returns the highest block any of them landed in.
func driveMixedTraffic(t *testing.T, tn *testNet, base int64, count int) uint64 {
	t.Helper()
	var chans []<-chan TxResult
	for i := 0; i < count; i++ {
		var ch <-chan TxResult
		if i%3 == 2 {
			ch, _ = tn.submit("bob", "transfer",
				types.NewInt(1), types.NewInt(2), types.NewFloat(1+float64(i)/100))
		} else {
			ch, _ = tn.submit("alice", "put_account",
				types.NewInt(base+int64(i)), types.NewString("p"), types.NewFloat(float64(i)))
		}
		chans = append(chans, ch)
	}
	var maxBlock uint64
	for _, ch := range chans {
		if r := tn.await(ch); r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	return maxBlock
}

// TestPipelineParity proves the pipelined processor is observationally
// identical to the inline seal of §3.6 replay, across both flows and both
// backends. Three pipelined nodes must agree on every write-set hash (the
// checkpoint quorum only forms when they match) with no divergence
// alerts. Node 0 is then restarted from its block log on the memory
// backend, which re-executes every block with the seal inline: Start
// refuses if a replayed write hash differs from the outcome frame the
// pipelined sealer wrote, and the restarted node must reach the live
// peers' state hash at every height.
func TestPipelineParity(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		for _, backend := range []storage.Kind{storage.KindMemory, storage.KindDisk} {
			flow, backend := flow, backend
			name := fmt.Sprintf("%s/%s",
				map[Flow]string{OrderThenExecute: "OE", ExecuteOrder: "EO"}[flow], backend)
			t.Run(name, func(t *testing.T) {
				tn := newTestNet(t, netOpts{
					flow:     flow,
					backend:  backend,
					dataDirs: true,
					cfg:      ordering.Config{BlockSize: 3, BlockTimeout: 20 * time.Millisecond},
				})
				maxBlock := driveMixedTraffic(t, tn, 100, 18)
				tn.waitHeights(int64(maxBlock))

				// Keep traffic flowing so the final checkpoints circulate,
				// then require full quorum coverage and zero alerts: the
				// quorum only advances when the nodes' write-set hashes
				// agree at every block.
				deadline := time.Now().Add(10 * time.Second)
				for time.Now().Before(deadline) {
					done := true
					for _, n := range tn.nodes {
						if n.LastCheckpoint() < maxBlock {
							done = false
						}
					}
					if done {
						break
					}
					ch, _ := tn.submit("alice", "put_account",
						types.NewInt(900+int64(time.Now().UnixNano()%100000)),
						types.NewString("fill"), types.NewFloat(1))
					tn.await(ch)
				}
				for i, n := range tn.nodes {
					if n.LastCheckpoint() < maxBlock {
						t.Fatalf("node %d checkpoint quorum stalled at %d, want %d",
							i, n.LastCheckpoint(), maxBlock)
					}
					if alerts := n.Alerts(); len(alerts) > 0 {
						t.Fatalf("node %d raised divergence alerts: %v", i, alerts)
					}
				}

				// The inline reference: replay every block of node 0's log.
				node0 := tn.nodes[0]
				tip := node0.Height()
				tn.waitHeights(tip)
				cfg := node0.cfg
				cfg.Backend = storage.KindMemory
				node0.Stop()
				replayed, err := NewNode(cfg, node0.signer, tn.netReg.Clone(), tn.net)
				if err != nil {
					t.Fatal(err)
				}
				if err := replayed.Bootstrap(Genesis{Certs: genesisCerts(tn), SQL: testGenesisSQL, Contracts: testContracts}); err != nil {
					t.Fatal(err)
				}
				if err := replayed.Start(); err != nil {
					t.Fatalf("inline replay disagrees with the pipelined seal: %v", err)
				}
				t.Cleanup(replayed.Stop)
				if got := replayed.SealedHeight(); got < tip {
					t.Fatalf("replay sealed up to %d, want %d", got, tip)
				}
				for h := int64(1); h <= tip; h++ {
					ref := replayed.StateHash(h)
					for i, n := range tn.nodes[1:] {
						if got := n.StateHash(h); got != ref {
							t.Fatalf("node %d state hash differs from the inline replay at height %d", i+1, h)
						}
					}
				}
				if alerts := replayed.Alerts(); len(alerts) > 0 {
					t.Fatalf("inline replay raised alerts: %v", alerts)
				}
			})
		}
	}
}

// TestCrashStopsNodeGoroutines crashes a quiescent node and requires
// every goroutine it started to exit: the execute and prewarm pools
// (GOMAXPROCS each), the block processor, the sealer and anti-entropy.
// A leaked exec worker would hold the crashed node's store for the rest
// of the process.
func TestCrashStopsNodeGoroutines(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1,
		cfg: ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond}})
	maxBlock := driveMixedTraffic(t, tn, 100, 3)
	tn.waitHeights(int64(maxBlock))

	before := runtime.NumGoroutine()
	tn.nodes[0].crashForTest()
	want := before - (2*runtime.GOMAXPROCS(0) + 3)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines after the crash, %d before: the node left %d of its own running",
			got, before, got-want)
	}
}

// TestCrashWithUnsealedBlocksRecovers kills a disk-backed node whose
// sealer is artificially parked — its blocks are committed (height
// advanced, state mutated) but never sealed (no ledger rows, no outcome
// frames, no durable height) — and restarts it. Recovery must
// re-execute the unsealed tail from the block store, re-derive the
// missing outcome frames and with them the sys_ledger rows,
// and converge to the always-up peers' state hash (§3.6 case b).
func TestCrashWithUnsealedBlocksRecovers(t *testing.T) {
	tn := newTestNet(t, netOpts{
		flow:     OrderThenExecute,
		backend:  storage.KindDisk,
		dataDirs: true,
		holdSeal: map[int]bool{1: true},
		cfg:      ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond},
	})
	held := tn.nodes[1]

	var maxBlock uint64
	var firstID string
	for i := 0; i < 6; i++ {
		ch, id := tn.submit("alice", "put_account",
			types.NewInt(int64(400+i)), types.NewString("x"), types.NewFloat(1))
		if r := tn.await(ch); r.Block > maxBlock {
			maxBlock = r.Block
		}
		if i == 0 {
			firstID = id
		}
	}
	// The held node commits (height advances) without sealing.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && held.Height() < int64(maxBlock) {
		time.Sleep(2 * time.Millisecond)
	}
	if held.Height() < int64(maxBlock) {
		t.Fatalf("held node never committed block %d (at %d)", maxBlock, held.Height())
	}
	if got := held.SealedHeight(); got != 0 {
		t.Fatalf("held node sealed height = %d, want 0", got)
	}
	want := held.StateHash(int64(maxBlock))

	cfg := held.cfg
	held.crashForTest()

	restarted, err := NewNode(cfg, held.signer, tn.netReg.Clone(), tn.net)
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

	// The unsealed tail was re-executed and re-sealed during Start.
	if got := restarted.SealedHeight(); got < int64(maxBlock) {
		t.Fatalf("recovery sealed up to %d, want at least %d", got, maxBlock)
	}
	if got := restarted.StateHash(int64(maxBlock)); got != want {
		t.Fatal("recovered state differs from pre-crash state")
	}
	if got, ref := restarted.StateHash(int64(maxBlock)), tn.nodes[0].StateHash(int64(maxBlock)); got != ref {
		t.Fatal("recovered state differs from always-up peer")
	}

	// The missing outcome frames were re-derived: every block up to the
	// crash height has one in the block log, and its write hash matches
	// the always-up peer's.
	if alerts := restarted.Alerts(); len(alerts) != 0 {
		t.Fatalf("alerts after recovery: %q", alerts)
	}
	for b := uint64(1); b <= maxBlock; b++ {
		got, ok := restarted.BlockStore().Outcome(b)
		want, _ := tn.nodes[0].BlockStore().Outcome(b)
		if !ok || got.WriteHash != want.WriteHash {
			t.Fatalf("block %d: re-derived outcome %v (found %v), the peer's write hash %v", b, got.WriteHash, ok, want.WriteHash)
		}
	}

	// And the sys_ledger rows exist for the re-sealed tail.
	res, err := restarted.Query(`SELECT COUNT(*) FROM sys_ledger`)
	if err != nil || res.Rows[0][0].Int() < 6 {
		t.Fatalf("re-derived ledger rows = %v, %v", res.Rows, err)
	}
	// Nothing was sealed before the crash, so nothing was restored: every
	// block is tail, re-executed by this process, and joins on xmin again.
	assertLedgerAfterRestart(t, restarted, firstID, 0)
}

// TestRestartKeepsCheckpoint restarts one node of three on the disk
// backend, which restores its blocks without re-executing them: the peer
// checkpoints riding in those blocks must be read again, so the node
// reports the checkpoint it reported before the restart, not 0.
func TestRestartKeepsCheckpoint(t *testing.T) {
	tn := newTestNet(t, netOpts{
		flow:     OrderThenExecute,
		backend:  storage.KindDisk,
		dataDirs: true,
		cfg:      ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond},
	})
	var last uint64
	for i := 0; i < 8; i++ {
		ch, _ := tn.submit("alice", "put_account", types.NewInt(int64(500+i)), types.NewString("cp"), types.NewFloat(1))
		if r := tn.await(ch); !r.Committed {
			t.Fatalf("tx %d aborted: %s", i, r.Reason)
		} else {
			last = r.Block
		}
	}
	tn.waitHeights(int64(last))
	node1 := tn.nodes[1]
	before := node1.LastCheckpoint()
	if before == 0 {
		t.Fatal("no checkpoint formed before the restart")
	}
	node1.Stop()

	restarted, err := NewNode(node1.cfg, node1.signer, tn.netReg.Clone(), tn.net)
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
	if got := restarted.LastCheckpoint(); got != before {
		t.Fatalf("LastCheckpoint after the restart = %d, want %d as before it", got, before)
	}
}

// TestRecordedIDSetCoherentAcrossRestart proves the in-memory
// recorded-id set (which replaced the per-transaction sys_ledger lookup)
// is rebuilt correctly on restart for both backends: ids consumed before
// the restart are still recognized as duplicates, fresh ids still pass.
func TestRecordedIDSetCoherentAcrossRestart(t *testing.T) {
	for _, backend := range []storage.Kind{storage.KindMemory, storage.KindDisk} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			tn := newTestNet(t, netOpts{
				flow:     OrderThenExecute,
				backend:  backend,
				dataDirs: true,
				cfg:      ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond},
			})
			var usedIDs []string
			var maxBlock uint64
			for i := 0; i < 4; i++ {
				ch, id := tn.submit("alice", "put_account",
					types.NewInt(int64(300+i)), types.NewString("x"), types.NewFloat(1))
				r := tn.await(ch)
				if !r.Committed {
					t.Fatalf("setup tx aborted: %s", r.Reason)
				}
				usedIDs = append(usedIDs, id)
				if r.Block > maxBlock {
					maxBlock = r.Block
				}
			}
			tn.waitHeights(int64(maxBlock))

			node1 := tn.nodes[1]
			dir := tn.dataDirs[1]
			cfg := node1.cfg
			node1.Stop()
			_ = dir

			restarted, err := NewNode(cfg, node1.signer, tn.netReg.Clone(), tn.net)
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

			// Every pre-restart id must be recognized; with the disk
			// backend they come back from the block store and the outcome
			// frames, with the memory backend via chain re-execution.
			restored := int64(0) // the memory backend re-executes everything
			if backend == storage.KindDisk {
				restored = int64(maxBlock)
			}
			assertLedgerAfterRestart(t, restarted, usedIDs[0], restored)
			for _, id := range usedIDs {
				if !restarted.ledger.seen(id) {
					t.Fatalf("restarted %s node lost recorded id %s", backend, id)
				}
			}
			if restarted.ledger.seen("never-used-id") {
				t.Fatal("recorded-id set contains an id that was never submitted")
			}

			// End to end: a fresh transaction still commits on the
			// restarted node (the set is not over-broad) and replicas
			// stay consistent.
			ch, _ := tn.submit("alice", "put_account",
				types.NewInt(399), types.NewString("fresh"), types.NewFloat(1))
			r := tn.await(ch)
			if !r.Committed {
				t.Fatalf("fresh tx aborted after restart: %s", r.Reason)
			}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) &&
				(restarted.Height() < int64(r.Block) || restarted.SealedHeight() < int64(r.Block)) {
				time.Sleep(2 * time.Millisecond)
			}
			if restarted.StateHash(int64(r.Block)) != tn.nodes[0].StateHash(int64(r.Block)) {
				t.Fatal("restarted node diverged after duplicate-check traffic")
			}
			// The block executed after the restart joins on xmin beside a
			// restored prefix that does not.
			assertLedgerAfterRestart(t, restarted, usedIDs[0], restored)
		})
	}
}

// TestInBlockDuplicateDoesNotRollBackCommit delivers a (malicious)
// block carrying the same transaction twice. The two entries share one
// execution record; the commit stage must commit the first, abort the
// second as a duplicate, and — critically — must not roll back the
// versions the first entry committed when aborting the second.
func TestInBlockDuplicateDoesNotRollBackCommit(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1,
		cfg: ordering.Config{BlockSize: 100, BlockTimeout: time.Hour}})
	node := tn.nodes[0]
	all := node.SubscribeAll()

	tx := tn.buildTx("alice", "put_account",
		[]types.Value{types.NewInt(777), types.NewString("dup"), types.NewFloat(7)}, 0)
	b := &ledger.Block{
		Number:    1,
		PrevHash:  tipHash(node),
		Timestamp: time.Now().UnixNano(),
		Txs:       []*ledger.Transaction{tx, tx},
	}
	b.ComputeHash()
	ord := tn.ordererSigners[0]
	b.Sigs = []ledger.BlockSig{{Orderer: ord.Name, Signature: ord.Sign(b.Hash[:])}}
	node.onBlock(simnet.Message{From: ord.Name, To: node.Name(), Kind: ordering.KindBlock, Payload: b.Encode()})

	var committed, dupAborted int
	for i := 0; i < 2; i++ {
		select {
		case r := <-all:
			if r.Committed {
				committed++
			} else if r.Reason == "duplicate transaction id" {
				dupAborted++
			} else {
				t.Fatalf("unexpected outcome: %+v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for duplicate-block outcomes")
		}
	}
	if committed != 1 || dupAborted != 1 {
		t.Fatalf("got %d commits, %d duplicate aborts; want 1 and 1", committed, dupAborted)
	}
	// The committed insert survived the duplicate's abort path.
	res, err := node.Query(`SELECT balance FROM accounts WHERE id = 777`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Float() != 7 {
		t.Fatalf("committed row lost after in-block duplicate: %v, %v", res.Rows, err)
	}
}

// buildSignedBlock assembles and signs a block directly (bypassing the
// ordering service, which dedups transaction ids).
func (tn *testNet) buildSignedBlock(number uint64, prev ledger.Hash, txs []*ledger.Transaction) *ledger.Block {
	b := &ledger.Block{Number: number, PrevHash: prev, Timestamp: time.Now().UnixNano(), Txs: txs}
	b.ComputeHash()
	ord := tn.ordererSigners[0]
	b.Sigs = []ledger.BlockSig{{Orderer: ord.Name, Signature: ord.Sign(b.Hash[:])}}
	return b
}

// TestHorizonSpanningDuplicateStaysAborted covers recovery's
// duplicate-id ordering: tx X commits in a block BELOW the storage
// recovery horizon, its duplicate is aborted in an unsealed block ABOVE
// it, and the node crashes. Replay re-executes only the tail, so the
// recorded-id set must be rebuilt for the restored prefix BEFORE
// the tail replay — otherwise the duplicate re-commits (a transfer has
// no unique-key conflict to save it) and the replica diverges from its
// pre-crash state.
func TestHorizonSpanningDuplicateStaysAborted(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute, nNodes: 1,
		backend: storage.KindDisk, dataDirs: true,
		cfg: ordering.Config{BlockSize: 100, BlockTimeout: time.Hour}})
	node := tn.nodes[0]
	ord := tn.ordererSigners[0]

	txX := tn.buildTx("alice", "transfer",
		[]types.Value{types.NewInt(1), types.NewInt(2), types.NewFloat(5)}, 0)
	txY := tn.buildTx("bob", "put_account",
		[]types.Value{types.NewInt(850), types.NewString("y"), types.NewFloat(1)}, 0)

	// Block 1 carries X and seals normally (it ends up below the horizon).
	b1 := tn.buildSignedBlock(1, tipHash(node), []*ledger.Transaction{txX})
	node.onBlock(simnet.Message{From: ord.Name, To: node.Name(), Kind: ordering.KindBlock, Payload: b1.Encode()})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && node.SealedHeight() < 1 {
		time.Sleep(time.Millisecond)
	}
	if node.SealedHeight() < 1 {
		t.Fatal("block 1 never sealed")
	}

	// Park the sealer, then deliver block 2 with X's duplicate: it
	// commits Y, aborts X as a duplicate, but never seals.
	node.sealPause.Store(true)
	b2 := tn.buildSignedBlock(2, b1.Hash, []*ledger.Transaction{txY, txX})
	node.onBlock(simnet.Message{From: ord.Name, To: node.Name(), Kind: ordering.KindBlock, Payload: b2.Encode()})
	for time.Now().Before(deadline) && node.Height() < 2 {
		time.Sleep(time.Millisecond)
	}
	if node.Height() < 2 || node.SealedHeight() != 1 {
		t.Fatalf("height=%d sealed=%d, want 2 and 1", node.Height(), node.SealedHeight())
	}
	want := node.StateHash(2) // balances 95/105: the duplicate moved money once

	cfg := node.cfg
	node.crashForTest()

	restarted, err := NewNode(cfg, node.signer, tn.netReg.Clone(), tn.net)
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

	if got := restarted.Height(); got != 2 {
		t.Fatalf("recovered height = %d, want 2", got)
	}
	if got := restarted.StateHash(2); got != want {
		t.Fatal("replayed duplicate re-committed: recovered state differs from pre-crash state")
	}
	res, err := restarted.Query(`SELECT balance FROM accounts WHERE id = 1`)
	if err != nil || res.Rows[0][0].Float() != 95 {
		t.Fatalf("account 1 balance = %v, %v (duplicate transfer applied twice?)", res.Rows, err)
	}
	// The ledger across the horizon: X's one row is the restored block 1's
	// (committed, no local_xid); block 2 was re-executed, so Y's row joins
	// the version it wrote on xmin, and X's duplicate there has no row.
	if got := ledgerRecs(t, restarted, ledgerRowsQuery+` ORDER BY block, seq`); len(got) != 2 ||
		got[0].TxID != txX.ID || got[0].Block != 1 || got[0].Status != "committed" ||
		got[1].TxID != txY.ID || got[1].Block != 2 || got[1].Seq != 0 {
		t.Fatalf("ledger across the horizon: %+v", got)
	}
	if n := count(t, restarted, `SELECT COUNT(*) FROM sys_ledger WHERE local_xid IS NULL`); n != 1 {
		t.Fatalf("%d rows without local_xid, want the restored block's one", n)
	}
	res, err = restarted.Query(`SELECT l.txid FROM accounts a PROVENANCE, sys_ledger l WHERE a.xmin = l.local_xid`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != txY.ID {
		t.Fatalf("tail block re-executed after the restart does not join on xmin: %v, %v", res, err)
	}
}

// TestCheckpointPruneableStalledQuorum covers the absolute bookkeeping
// bound: with a majority of peers silent, lastCP never advances, yet the
// agreement sets far enough behind the node's own sealed tip must still be
// evicted (checkpointLagCap), while recent ones and checkpoints for
// blocks not sealed yet are kept for when the peers return.
func TestCheckpointPruneableStalledQuorum(t *testing.T) {
	n := &Node{cfg: Config{Name: "db0", Peers: []string{"db0", "db1", "db2", "db3"}}}
	agree := map[string]ledger.Hash{"db1": {1}} // db2 and db3 are silent
	old, recent, ahead := uint64(50), uint64(checkpointLagCap+90), uint64(checkpointLagCap+150)
	n.peerHashes = map[uint64]map[string]ledger.Hash{old: agree, recent: agree, ahead: agree}
	// lastCP stuck at 0: no quorum ever formed.
	n.pruneCheckpointsLocked(checkpointLagCap + 100)
	if _, ok := n.peerHashes[old]; ok {
		t.Fatal("entry far behind the sealed tip not evicted under a stalled quorum")
	}
	if _, ok := n.peerHashes[recent]; !ok {
		t.Fatal("recent entry evicted — its agreement set is lost")
	}
	if _, ok := n.peerHashes[ahead]; !ok {
		t.Fatal("checkpoint for a block not sealed yet evicted")
	}
	// Below the cap nothing is evicted without a quorum.
	n.peerHashes[old] = agree
	n.pruneCheckpointsLocked(100)
	if len(n.peerHashes) != 3 {
		t.Fatalf("%d of 3 entries kept within the lag cap while no quorum passed", len(n.peerHashes))
	}
}

// TestSealMetricsExposed checks the pipeline's observability: seal
// counters advance and the queue gauge returns to zero at quiescence.
func TestSealMetricsExposed(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond}})
	maxBlock := driveMixedTraffic(t, tn, 200, 6)
	tn.waitHeights(int64(maxBlock))
	m := tn.nodes[0].Metrics()
	if m.BlocksSealed.Load() == 0 || m.BlockSealNanos.Load() == 0 {
		t.Fatalf("seal metrics not populated: sealed=%d nanos=%d",
			m.BlocksSealed.Load(), m.BlockSealNanos.Load())
	}
	if d := m.Snapshot().SealQueueDepth; d != 0 {
		t.Fatalf("seal queue depth = %d after quiescence, want 0", d)
	}
	if got, want := tn.nodes[0].SealedHeight(), tn.nodes[0].Height(); got < want {
		// waitHeights already waited for the seal; the gauge must agree.
		t.Fatalf("sealed height %d behind committed height %d after wait", got, want)
	}
}

// TestCheckpointBookkeepingPruned proves the checkpoint bookkeeping stays
// bounded while one peer is silent: its checkpoints never complete a
// block's set, yet once the quorum passes a block nothing at or below it
// is kept, instead of one entry per block lingering for a retention window.
func TestCheckpointBookkeepingPruned(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 2, BlockTimeout: 20 * time.Millisecond}})
	tn.nodes[2].Stop()
	maxBlock := driveMixedTraffic(t, tn, 500, 300)

	// Push follow-up traffic until the quorum covers maxBlock, then
	// check what the bookkeeping holds.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && tn.nodes[0].LastCheckpoint() < maxBlock {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(600+int64(time.Now().UnixNano()%100000)), types.NewString("f"), types.NewFloat(1))
		tn.await(ch)
	}
	n := tn.nodes[0]
	waitSealedHeight(t, n, n.Height())
	n.cpMu.Lock()
	last := n.lastCP
	var kept []uint64
	for blk := range n.peerHashes {
		kept = append(kept, blk)
	}
	n.cpMu.Unlock()
	if last < maxBlock {
		t.Fatalf("checkpoint quorum stalled at %d", last)
	}
	for _, blk := range kept {
		if blk <= last {
			t.Fatalf("checkpoint bookkeeping keeps block %d, at or below the checkpoint %d (%d entries after %d blocks)",
				blk, last, len(kept), last)
		}
	}
	if len(kept) > 8 {
		t.Fatalf("checkpoint bookkeeping not pruned: %d entries after %d blocks", len(kept), last)
	}
}

// TestLaggardDivergentCheckpointDetected is the laggard case of §3.5
// detection: a peer that lags far behind the checkpoint reports a write
// set that differs from this node's for a block sealed long ago. The own
// hash is the block's outcome in the block store, so the comparison needs
// nothing retained, and the divergence raises an alert however far below
// the checkpoint the block lies.
func TestLaggardDivergentCheckpointDetected(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 1, BlockTimeout: 20 * time.Millisecond}})
	n := tn.nodes[0]
	const lag = 140 // more blocks than any retention window of the past held
	driveMixedTraffic(t, tn, 1000, lag+10)
	// Checkpoints ride in later blocks: follow-up traffic carries them.
	for i := int64(0); n.LastCheckpoint() < lag+5; i++ {
		if i > 100 {
			t.Fatalf("checkpoint at %d after %d follow-up transactions", n.LastCheckpoint(), i)
		}
		ch, _ := tn.submit("alice", "put_account", types.NewInt(2000+i), types.NewString("f"), types.NewFloat(1))
		tn.await(ch)
	}
	waitSealedHeight(t, n, n.Height())
	if a := n.Alerts(); len(a) != 0 {
		t.Fatalf("alerts before the divergent checkpoint: %q", a)
	}
	block := n.LastCheckpoint() - lag
	cp := &ledger.Checkpoint{Peer: "db2", Block: block, WriteHash: ledger.Hash{0xba, 0xd}}
	cp.Signature = tn.nodes[2].signer.Sign(cp.SignBytes())
	n.collectCheckpoints(&ledger.Block{Checkpoints: []*ledger.Checkpoint{cp}})
	want := fmt.Sprintf("checkpoint divergence at block %d: peer db2", block)
	if a := n.Alerts(); !slices.Contains(a, want) {
		t.Fatalf("alerts %q, want %q", a, want)
	}
	n.cpMu.Lock()
	defer n.cpMu.Unlock()
	if _, kept := n.peerHashes[block]; kept {
		t.Fatalf("the compared checkpoint for block %d is still kept", block)
	}
}
