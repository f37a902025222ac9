package bcrdb

import (
	"strings"
	"testing"
	"time"

	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
)

// Regression test for the client waiter leak: an Await that times out
// must deregister both its node-side subscription and its client-side
// waiter entry. Before the fix the waiters map grew by one entry per
// timed-out transaction for the life of the client.
func TestAwaitTimeoutReleasesWaiters(t *testing.T) {
	nw, err := NewNetwork(demoOptions(OrderThenExecute))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	alice := nw.Client("alice")

	// Black-hole everything alice sends: the submission is accepted by
	// the network but never reaches an orderer, so the tx never resolves.
	nw.Net().SetFaultsFn(func(from, to string) simnet.Faults {
		if from == "alice" {
			return simnet.Faults{DropProb: 1}
		}
		return simnet.Faults{}
	})

	p, err := alice.Submit("open_account", Int(7001), Text("x"), Float(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Await(150 * time.Millisecond); err == nil {
		t.Fatal("Await should time out for a black-holed submission")
	}
	alice.mu.Lock()
	leaked := len(alice.waiters)
	alice.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("client waiters map leaked %d entries after Await timeout", leaked)
	}

	// The client stays fully usable once the fault heals.
	nw.Net().ClearFaults()
	res, err := alice.Invoke("open_account", Int(7002), Text("y"), Float(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("post-heal invoke aborted: %s", res.Reason)
	}
	alice.mu.Lock()
	leaked = len(alice.waiters)
	alice.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("client waiters map leaked %d entries after committed invoke", leaked)
	}
}

// Crashing a node's delivering orderer under load must trigger exactly
// the failover path: the node re-subscribes to the next orderer in the
// ring, backfills from its peers, and the network stays consistent —
// all without restarting anything.
func TestOrdererFailoverUnderLoad(t *testing.T) {
	opts := demoOptions(OrderThenExecute)
	opts.FailoverTimeout = 600 * time.Millisecond
	opts.AntiEntropyEvery = 50 * time.Millisecond
	opts.Retry = RetryPolicy{Attempts: 4, Timeout: 2 * time.Second, Backoff: 50 * time.Millisecond}
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	node0 := nw.Node(0)
	old := node0.DeliveringOrderer()
	idx := -1
	for i, o := range nw.Orderers() {
		if o == old {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("delivering orderer %q not in ring %v", old, nw.Orderers())
	}

	// Prove the happy path first, then crash node0's orderer.
	if res, err := nw.Client("alice").Invoke("open_account", Int(8000), Text("x"), Float(1)); err != nil || !res.Committed {
		t.Fatalf("warmup invoke: %+v, %v", res, err)
	}
	nw.StopOrderer(idx)

	// Keep load flowing from every org while the failover plays out.
	users := []string{"alice", "bob", "carol"}
	deadline := time.Now().Add(20 * time.Second)
	committed := 0
	for i := 0; node0.Metrics().OrdererFailovers.Load() == 0 || committed < 5; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no failover after 20s under load (failovers=%d committed=%d)",
				node0.Metrics().OrdererFailovers.Load(), committed)
		}
		res, err := nw.Client(users[i%len(users)]).Invoke("open_account", Int(int64(8100+i)), Text("x"), Float(1))
		if err != nil {
			continue // lost in the failover window; the next invoke retries fresh
		}
		if res.Committed {
			committed++
		}
	}
	if cur := node0.DeliveringOrderer(); cur == old {
		t.Fatalf("node0 still delivering from crashed orderer %s", cur)
	}

	// The node that lost its orderer must converge with the rest.
	if err := nw.WaitHeight(nw.Height(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A node partitioned from every peer and orderer for 200+ blocks must
// catch all the way up through anti-entropy alone once the partition
// heals — no restart, no resubscription storm, bounded pending buffer.
func TestPartitionCatchUpWithoutRestart(t *testing.T) {
	opts := demoOptions(OrderThenExecute)
	opts.BlockSize = 1 // one block per tx: a few hundred invokes = a few hundred blocks
	opts.BlockTimeout = 5 * time.Millisecond
	opts.FailoverTimeout = 400 * time.Millisecond
	opts.AntiEntropyEvery = 50 * time.Millisecond
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	node2 := nw.Node(2)
	isolated := node2.Name()
	var others []string
	for _, n := range nw.Nodes() {
		if n.Name() != isolated {
			others = append(others, n.Name())
		}
	}
	others = append(others, nw.Orderers()...)
	for _, o := range others {
		nw.Net().Partition(isolated, o)
	}
	cutHeight := node2.Height()

	// Drive 200+ blocks through the healthy majority.
	alice := nw.Client("alice")
	for i := 0; i < 210; i++ {
		res, err := alice.Invoke("open_account", Int(int64(9000+i)), Text("x"), Float(1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("invoke %d aborted: %s", i, res.Reason)
		}
	}
	target := nw.Node(0).Height()
	if target-cutHeight < 200 {
		t.Fatalf("only %d blocks produced during the partition", target-cutHeight)
	}
	if h := node2.Height(); h != cutHeight {
		t.Fatalf("partitioned node advanced from %d to %d", cutHeight, h)
	}

	// Heal and let anti-entropy do the rest: tip gossip discovers the
	// deficit, windowed catch-up requests pull the range from peers.
	catchUpsBefore := node2.Metrics().CatchUpRequests.Load()
	for _, o := range others {
		nw.Net().Heal(isolated, o)
	}
	deadline := time.Now().Add(30 * time.Second)
	for node2.Height() < target {
		if time.Now().After(deadline) {
			t.Fatalf("node %s stuck at height %d (target %d) 30s after heal",
				isolated, node2.Height(), target)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := nw.WaitHeight(nw.Height(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := node2.Metrics().CatchUpRequests.Load(); got <= catchUpsBefore {
		t.Fatalf("healed without catch-up requests (before=%d after=%d) — wrong mechanism", catchUpsBefore, got)
	}
}

// A block whose delivery is lost on every orderer → peer link is held by
// no database node, so peer-to-peer catch-up alone asks for it forever
// while later blocks pile up behind the gap — the stall behind the chaos
// soak's lost invokes. The delivering orderer's retained window must heal
// it: the node asks its orderer as one stop of the catch-up rotation.
func TestBlockLostOnEveryDeliveryLink(t *testing.T) {
	opts := demoOptions(OrderThenExecute)
	opts.AntiEntropyEvery = 50 * time.Millisecond
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	alice := nw.Client("alice")
	first, err := alice.Invoke("open_account", Int(7100), Text("x"), Float(1))
	if err != nil || !first.Committed {
		t.Fatalf("warmup invoke: %+v, %v", first, err)
	}
	if err := nw.WaitHeight(int64(first.Block), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The next block is cut and lost for everyone.
	nw.Net().SetFaultsFn(func(from, to string) simnet.Faults {
		if strings.HasPrefix(from, "orderer") && strings.HasPrefix(to, "db.") {
			return simnet.Faults{DropProb: 1}
		}
		return simnet.Faults{}
	})
	if _, err := nw.SubmitRaw("alice", "open_account", []Value{Int(7101), Text("lost"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	nw.Net().ClearFaults()

	p, err := alice.Submit("open_account", Int(7102), Text("y"), Float(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Await(10 * time.Second)
	if err != nil {
		for _, n := range nw.Nodes() {
			t.Logf("%s at height %d", n.Name(), n.Height())
		}
		t.Fatal(err)
	}
	if !res.Committed || res.Block != first.Block+2 {
		t.Fatalf("result %+v, want a commit in block %d", res, first.Block+2)
	}
	if err := nw.WaitHeight(int64(res.Block), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// An execute-order client retry walks the node ring, and each node
// forwards to the ordering service itself, offset by its place in the
// ring: the retry walks the orderers too, so a transaction the dead
// orderer owns commits through the next one. Alice's home is node 0,
// whose pick is the order-then-execute route's attempt 0.
func TestExecuteOrderRetryWalksPastDeadOrderer(t *testing.T) {
	opts := demoOptions(ExecuteOrder)
	opts.Retry = RetryPolicy{Attempts: 4, Timeout: time.Second, Backoff: 20 * time.Millisecond}
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const dead = 1
	nw.StopOrderer(dead)
	orderers := uint32(len(nw.Orderers()))

	alice := nw.Client("alice")
	owned := 0 // invokes whose id the dead orderer owns
	for i := 0; owned < 3; i++ {
		if i == 60 {
			t.Fatalf("only %d of 60 ids hashed to %s", owned, nw.Orderers()[dead])
		}
		res, err := alice.Invoke("open_account", Int(int64(9000+i)), Text("x"), Float(1))
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if !res.Committed {
			t.Fatalf("invoke %d aborted: %s", i, res.Reason)
		}
		if ordering.FNV1a(res.ID)%orderers == dead {
			owned++
		}
	}
}

// TestBFTRequestSurvivesDeadLeader: a request that a follower forwards
// to a dead PBFT leader is not lost. The follower holds it until a block
// carries it, and hands it to the leader of the view that replaces the
// dead one, so it commits after the view change (10 × BlockTimeout =
// 200 ms) rather than after the client's attempt timeout. An attempt sent
// to the dead orderer itself fails at once, so the first invoke reaches
// a live follower by its first or second attempt.
func TestBFTRequestSurvivesDeadLeader(t *testing.T) {
	opts := demoOptions(OrderThenExecute)
	opts.Ordering = OrderingBFT
	opts.Retry = RetryPolicy{Attempts: 3, Timeout: 4 * time.Second}
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.StopOrderer(0) // the view-0 leader

	bob := nw.Client("bob") // org2's node takes deliveries from a live orderer
	for i := 0; i < 6; i++ {
		start := time.Now()
		res, err := bob.Invoke("open_account", Int(int64(7000+i)), Text("x"), Float(1))
		if err != nil || !res.Committed {
			t.Fatalf("invoke %d: %+v, %v", i, res, err)
		}
		if took := time.Since(start); i == 0 && took > 1500*time.Millisecond {
			t.Fatalf("the first invoke, forwarded to the dead leader, took %v, want under 1.5s", took)
		}
	}
}
