package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/ssi"
	"bcrdb/internal/types"
)

// replayHistory re-derives node i's committed history up to block h from
// its chain alone: a fresh node from the same genesis runs each block's
// Execute → Commit → Seal stages by hand, and every committed
// transaction's read/write sets are copied between commit and seal, as
// the seal hands the records back to the arena. Each replayed decision
// must equal node i's logged outcome and each replayed write-set hash the
// logged one, so the history returned is the one node i committed.
func (tn *testNet) replayHistory(i int, h uint64) []*ssi.CommittedTx {
	tn.t.Helper()
	src := tn.nodes[i]
	signer, err := identity.NewSigner("replay", src.cfg.Org, identity.RolePeer, nil)
	if err != nil {
		tn.t.Fatal(err)
	}
	net := simnet.New(simnet.Profile{})
	defer net.Close()
	r, err := NewNode(Config{Name: "replay", Org: src.cfg.Org, Flow: src.cfg.Flow}, signer, tn.netReg.Clone(), net)
	if err != nil {
		tn.t.Fatal(err)
	}
	if err := r.Bootstrap(Genesis{Certs: genesisCerts(tn), SQL: testGenesisSQL, Contracts: testContracts}); err != nil {
		tn.t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		tn.t.Fatal(err)
	}
	defer r.Stop()

	var hist []*ssi.CommittedTx
	for num := uint64(1); num <= h; num++ {
		b, err := src.blocks.Get(num)
		if err != nil {
			tn.t.Fatalf("node %d block %d: %v", i, num, err)
		}
		logged, ok := src.blocks.Outcome(num)
		if !ok {
			tn.t.Fatalf("node %d holds no outcome of block %d", i, num)
		}
		r.blockMu.Lock()
		err = r.blocks.Append(b)
		r.blockMu.Unlock()
		if err != nil {
			tn.t.Fatalf("node %d block %d does not link: %v", i, num, err)
		}
		execs := r.executeStage(b, true)
		task := r.commitStage(b, execs, true, time.Now())
		for seq, e := range execs {
			live := logged.Committed[seq/8]&(1<<(seq%8)) != 0
			if got := task.results[seq]; got.Committed != live {
				tn.t.Fatalf("node %d block %d tx %d: live committed=%v, replay committed=%v (%s)",
					i, num, seq, live, got.Committed, got.Reason)
			}
			if !live {
				continue
			}
			info := r.txInfo(seq, e)
			hist = append(hist, &ssi.CommittedTx{
				Name:           e.tx.ID,
				Block:          int64(num),
				Seq:            seq,
				SnapshotHeight: e.rec.SnapshotHeight,
				ReadRows:       maps.Clone(info.ReadRows),
				ReadRanges:     slices.Clone(info.ReadRanges),
				WrittenOld:     info.WrittenOld,
				InsertedRefs:   slices.Clone(e.rec.Inserted),
				InsertedKeys:   info.InsertedKeys,
			})
		}
		if err := r.sealStage(task); err != nil {
			tn.t.Fatalf("node %d block %d: %v", i, num, err)
		}
		if replayed, _ := r.blocks.Outcome(num); replayed.WriteHash != logged.WriteHash {
			tn.t.Fatalf("node %d block %d: the replayed write set differs from the logged one", i, num)
		}
	}
	return hist
}

// TestRandomWorkloadIsSerializable is the central property test of the
// whole system: drive a random, highly conflicting workload through a
// network, replay every replica's chain to recover its committed
// transactions' read/write sets, and verify with the MVSG checker (Adya
// et al.) that the committed history of every replica admits a serial
// order — i.e. that the SSI variants plus commit-turn validation never
// let a non-serializable execution commit. Replica state hashes are
// compared as well.
func TestRandomWorkloadIsSerializable(t *testing.T) {
	flows := []struct {
		name string
		flow Flow
	}{
		{"OrderThenExecute", OrderThenExecute},
		{"ExecuteOrderParallel", ExecuteOrder},
	}
	for _, fc := range flows {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			tn := newTestNet(t, netOpts{flow: fc.flow,
				cfg: ordering.Config{BlockSize: 8, BlockTimeout: 10 * time.Millisecond}})

			// Conflict-heavy random mix over just 3 accounts: transfers
			// (read-modify-write), joint withdrawals (write skew shape),
			// and inserts (phantom sources).
			rng := rand.New(rand.NewSource(99))
			users := []string{"alice", "bob", "carol"}
			type pending struct {
				ch <-chan TxResult
			}
			var waits []pending
			var nextAcct int64 = 5000
			for i := 0; i < 60; i++ {
				user := users[rng.Intn(len(users))]
				switch rng.Intn(3) {
				case 0:
					from := int64(rng.Intn(3) + 1)
					to := int64(rng.Intn(3) + 1)
					ch, _ := tn.submit(user, "transfer",
						types.NewInt(from), types.NewInt(to), types.NewFloat(float64(rng.Intn(5)+1)+float64(i)/1000))
					waits = append(waits, pending{ch})
				case 1:
					a := int64(rng.Intn(3) + 1)
					b := int64(rng.Intn(3) + 1)
					ch, _ := tn.submit(user, "withdraw_joint",
						types.NewInt(a), types.NewInt(b), types.NewInt(a), types.NewFloat(float64(rng.Intn(20)+1)+float64(i)/1000))
					waits = append(waits, pending{ch})
				case 2:
					nextAcct++
					ch, _ := tn.submit(user, "put_account",
						types.NewInt(nextAcct), types.NewString(fmt.Sprintf("u%d", i)), types.NewFloat(10))
					waits = append(waits, pending{ch})
				}
			}
			var maxBlock uint64
			commits, aborts := 0, 0
			for _, p := range waits {
				r := tn.await(p.ch)
				if r.Block > maxBlock {
					maxBlock = r.Block
				}
				if r.Committed {
					commits++
				} else {
					aborts++
				}
			}
			t.Logf("%s: %d committed, %d aborted over %d blocks", fc.name, commits, aborts, maxBlock)
			if commits == 0 {
				t.Fatal("nothing committed")
			}
			tn.waitHeights(int64(maxBlock))
			tn.assertConsistent(int64(maxBlock))

			ref := tn.replayHistory(0, maxBlock)
			if len(ref) != commits {
				t.Fatalf("node 0's chain holds %d committed transactions, clients saw %d", len(ref), commits)
			}
			for i := range tn.nodes {
				hist := ref
				if i > 0 {
					hist = tn.replayHistory(i, maxBlock)
				}
				if err := ssi.CheckSerializable(hist); err != nil {
					t.Fatalf("node %d committed a non-serializable history: %v", i, err)
				}
				// All nodes must commit exactly the same transactions in
				// the same block order.
				if len(ref) != len(hist) {
					t.Fatalf("node %d committed %d txs, node 0 committed %d", i, len(hist), len(ref))
				}
				for j := range ref {
					if ref[j].Name != hist[j].Name || ref[j].Block != hist[j].Block {
						t.Fatalf("commit order diverges at %d: %s@%d vs %s@%d",
							j, ref[j].Name, ref[j].Block, hist[j].Name, hist[j].Block)
					}
				}
			}
		})
	}
}

// TestSerialOrderMatchesInvariant reconstructs the apparent serial order
// of a committed history and replays it sequentially against a fresh
// in-memory model, checking the final balances match the replicas.
func TestSerialOrderMatchesInvariant(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 4, BlockTimeout: 10 * time.Millisecond}})

	type transfer struct {
		from, to int64
		amt      float64
	}
	transfers := make(map[string]transfer)
	var waits []<-chan TxResult
	for i := 0; i < 20; i++ {
		from := int64(i%3 + 1)
		to := from%3 + 1
		// Unique fractional amounts keep every transaction id distinct
		// (the ordering service drops duplicate ids).
		amt := float64(i%4+1) + float64(i)/100
		ch, id := tn.submit([]string{"alice", "bob", "carol"}[i%3], "transfer",
			types.NewInt(from), types.NewInt(to), types.NewFloat(amt))
		transfers[id] = transfer{from, to, amt}
		waits = append(waits, ch)
	}
	var maxBlock uint64
	for _, ch := range waits {
		r := tn.await(ch)
		if r.Block > maxBlock {
			maxBlock = r.Block
		}
	}
	tn.waitHeights(int64(maxBlock))

	hist := tn.replayHistory(0, maxBlock)
	order, err := ssi.SerialOrder(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(hist) {
		t.Fatalf("serial order covers %d of %d", len(order), len(hist))
	}
	// The serial order must be a permutation without duplicates.
	seen := make(map[string]bool)
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate %s in serial order", id)
		}
		seen[id] = true
	}

	// Run the committed transfers one at a time in that order: the model
	// must end where the replicas did.
	model := map[int64]float64{1: 100, 2: 100, 3: 100}
	for _, id := range order {
		tr, ok := transfers[id]
		if !ok {
			t.Fatalf("serial order names %s, which no client submitted", id)
		}
		model[tr.from] -= tr.amt
		model[tr.to] += tr.amt
	}
	res, err := tn.nodes[0].QueryAt(int64(maxBlock), "SELECT id, balance FROM accounts ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(model) {
		t.Fatalf("replica holds %d accounts, model %d", len(res.Rows), len(model))
	}
	for _, row := range res.Rows {
		if id, bal := row[0].Int(), row[1].Float(); model[id] != bal {
			t.Fatalf("account %d: replica balance %v, serial replay %v", id, bal, model[id])
		}
	}
}
