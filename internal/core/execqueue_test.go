package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

func newTestExec() *execution {
	return &execution{done: make(chan struct{})}
}

func TestExecQueueReadyFIFO(t *testing.T) {
	q := newExecQueue(func() int64 { return 10 })
	a, b := newTestExec(), newTestExec()
	q.put(a, 5)
	q.put(b, 5)
	j1, ok := q.take()
	j2, ok2 := q.take()
	if !ok || !ok2 || j1.e != a || j2.e != b {
		t.Fatalf("take order wrong: ok=%v/%v got %p,%p want %p,%p", ok, ok2, j1.e, j2.e, a, b)
	}
}

func TestExecQueueParksFutureSnapshots(t *testing.T) {
	var h atomic.Int64
	h.Store(1)
	q := newExecQueue(h.Load)
	future := newTestExec()
	q.put(future, 3) // parked: snapshot beyond committed height

	got := make(chan *execution, 1)
	go func() {
		j, ok := q.take()
		if ok {
			got <- j.e
		}
	}()
	select {
	case e := <-got:
		t.Fatalf("parked job %p handed to a worker before release", e)
	case <-time.After(20 * time.Millisecond):
	}

	h.Store(3)
	q.release(3)
	select {
	case e := <-got:
		if e != future {
			t.Fatalf("released wrong job")
		}
	case <-time.After(time.Second):
		t.Fatal("release did not wake the worker")
	}
}

func TestExecQueueReleaseIsInclusive(t *testing.T) {
	var h atomic.Int64
	q := newExecQueue(h.Load)
	at2, at3 := newTestExec(), newTestExec()
	q.put(at2, 2)
	q.put(at3, 3)
	h.Store(2)
	q.release(2)
	q.mu.Lock()
	ready, parked := len(q.ready), len(q.parked)
	q.mu.Unlock()
	if ready != 1 || parked != 1 {
		t.Fatalf("after release(2): ready=%d parked=%d, want 1/1", ready, parked)
	}
}

func TestExecQueueRemove(t *testing.T) {
	var h atomic.Int64
	h.Store(1)
	q := newExecQueue(h.Load)
	ready, parked := newTestExec(), newTestExec()
	q.put(ready, 1)
	q.put(parked, 5)
	if !q.remove(ready) || !q.remove(parked) {
		t.Fatal("remove failed to find queued jobs")
	}
	if q.remove(ready) {
		t.Fatal("remove found an already-removed job")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ready) != 0 || len(q.parked) != 0 {
		t.Fatalf("queue not empty after removes: ready=%d parked=%d", len(q.ready), len(q.parked))
	}
}

func TestExecQueueCloseFailsQueuedJobs(t *testing.T) {
	var h atomic.Int64
	h.Store(1)
	q := newExecQueue(h.Load)
	ready, parked := newTestExec(), newTestExec()
	q.put(ready, 1)
	q.put(parked, 9)

	// A blocked worker must observe the close and exit.
	workerExited := make(chan bool, 1)
	go func() {
		for {
			if _, ok := q.take(); !ok {
				workerExited <- true
				return
			}
		}
	}()

	q.close()
	for _, e := range []*execution{ready, parked} {
		select {
		case <-e.done:
			if e.err != errQueueClosed {
				t.Fatalf("orphaned job err = %v, want errQueueClosed", e.err)
			}
		case <-time.After(time.Second):
			t.Fatal("close left a queued job hanging")
		}
	}
	select {
	case <-workerExited:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the blocked worker")
	}

	// put after close fails immediately instead of hanging.
	late := newTestExec()
	q.put(late, 1)
	select {
	case <-late.done:
		if late.err != errQueueClosed {
			t.Fatalf("late job err = %v, want errQueueClosed", late.err)
		}
	default:
		t.Fatal("put on a closed queue did not fail the job")
	}
}

// TestExecQueueConcurrentPutTakeRelease hammers the queue from several
// producers, workers and a height-bumper; with -race it audits the
// locking, and the final count proves no job is lost or duplicated.
func TestExecQueueConcurrentPutTakeRelease(t *testing.T) {
	const (
		producers = 4
		perProd   = 200
		workers   = 4
	)
	var h atomic.Int64
	q := newExecQueue(h.Load)

	var taken atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := q.take()
				if !ok {
					return
				}
				close(j.e.done)
				taken.Add(1)
			}
		}()
	}
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				// Mix runnable and parked-at-various-heights jobs.
				q.put(newTestExec(), int64(i%10))
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Store(i % 12)
			q.release(i % 12)
		}
	}()
	prodWG.Wait()
	h.Store(100)
	for taken.Load() < producers*perProd {
		q.release(100)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	q.close()
	wg.Wait()
	if got := taken.Load(); got != producers*perProd {
		t.Fatalf("workers ran %d jobs, want %d", got, producers*perProd)
	}
}

// --- node level: the parking is the snapshot-height wait ------------------------

// parkedNet is a three-node execute-order network whose orderers never cut
// a block: the test forwards transactions and delivers blocks by hand.
func parkedNet(t *testing.T) *testNet {
	return newTestNet(t, netOpts{flow: ExecuteOrder,
		cfg: ordering.Config{BlockSize: 100, BlockTimeout: time.Hour}})
}

// forwardToAll hands every node the transaction as a peer forward (§3.4.1)
// and returns each node's execution of it.
func forwardToAll(t *testing.T, tn *testNet, tx *ledger.Transaction) []*execution {
	t.Helper()
	payload := ledger.MarshalTransaction(tx)
	execs := make([]*execution, len(tn.nodes))
	for i, n := range tn.nodes {
		n.onSubmit(simnet.Message{From: "peer", To: n.Name(), Kind: KindForward, Payload: payload}, false)
		n.execMu.Lock()
		execs[i] = n.executing[tx.ID]
		n.execMu.Unlock()
		if execs[i] == nil {
			t.Fatalf("node %d started no execution for the forwarded transaction", i)
		}
	}
	return execs
}

func parkedAt(n *Node, snapshot int64) int {
	n.execQ.mu.Lock()
	defer n.execQ.mu.Unlock()
	return len(n.execQ.parked[snapshot])
}

// deliverToAll hands every node block number over txs, as its orderer would.
func deliverToAll(tn *testNet, number uint64, txs ...*ledger.Transaction) {
	for _, n := range tn.nodes {
		prev := ledger.Hash{}
		if number > 1 {
			b, _ := n.BlockStore().Get(number - 1)
			prev = b.Hash
		}
		deliverScenarioBlock(tn, n, number, prev, txs)
	}
}

// stopAll stops every node and fails the test if a Stop does not return —
// which is what a worker (or a job) leaked on a height wait would cause.
func stopAll(t *testing.T, tn *testNet) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		for _, n := range tn.nodes {
			n.Stop()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return: an execution is still waiting")
	}
}

// TestExecuteOrderParkedWithdrawnOnInvalidSnapshot: a forwarded
// transaction whose snapshot the node has not reached parks off the worker
// pool; when a block at or below that snapshot carries it, the snapshot
// can never be read — every node aborts it with the same reason and the
// parked copy is withdrawn without ever running (execQueue.remove).
func TestExecuteOrderParkedWithdrawnOnInvalidSnapshot(t *testing.T) {
	tn := parkedNet(t)
	tx := tn.buildTx("alice", "put_account",
		[]types.Value{types.NewInt(900), types.NewString("never"), types.NewFloat(1)}, 5)
	execs := forwardToAll(t, tn, tx)
	for i, n := range tn.nodes {
		if got := parkedAt(n, 5); got != 1 {
			t.Fatalf("node %d: %d jobs parked at height 5, want 1", i, got)
		}
	}

	ch := tn.watch(tx.ID)
	other := tn.buildTx("bob", "put_account",
		[]types.Value{types.NewInt(901), types.NewString("ok"), types.NewFloat(2)}, 0)
	deliverToAll(tn, 1, tx, other)
	r := tn.await(ch)
	if r.Committed || r.Block != 1 || r.Reason != "execution: invalid snapshot 5 for block 1" {
		t.Fatalf("result = %+v, want the invalid-snapshot abort in block 1", r)
	}
	tn.waitHeights(1)
	for i, n := range tn.nodes {
		select {
		case <-execs[i].done:
		default:
			t.Fatalf("node %d: the parked execution was never finished", i)
		}
		if execs[i].err != errCancelled || execs[i].rec != nil {
			t.Errorf("node %d: parked execution err = %v, rec = %v; want withdrawn before running", i, execs[i].err, execs[i].rec)
		}
		if got := parkedAt(n, 5); got != 0 {
			t.Errorf("node %d: %d jobs still parked at height 5", i, got)
		}
		res, err := n.Query(`SELECT status FROM sys_ledger WHERE txid = $1`, types.NewString(tx.ID))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "aborted" {
			t.Errorf("node %d: ledger row = %v, %v", i, res, err)
		}
		if c := count(t, n, `SELECT COUNT(*) FROM accounts WHERE id IN (900, 901)`); c != 1 {
			t.Errorf("node %d: %d of the block's two rows exist, want only 901", i, c)
		}
	}
	tn.assertConsistent(1)
	stopAll(t, tn)
}

// TestExecuteOrderParkedReleasedAtSnapshot: a forwarded transaction whose
// snapshot is two blocks ahead parks, runs once that height commits
// (execQueue.release) and commits when its block arrives — the committer
// joins the execution the forward started.
func TestExecuteOrderParkedReleasedAtSnapshot(t *testing.T) {
	tn := parkedNet(t)
	put := func(id, snapshot int64) *ledger.Transaction {
		return tn.buildTx("alice", "put_account",
			[]types.Value{types.NewInt(id), types.NewString("p"), types.NewFloat(1)}, snapshot)
	}
	tx := put(910, 2)
	execs := forwardToAll(t, tn, tx)

	deliverToAll(tn, 1, put(911, 0))
	tn.waitHeights(1)
	for i, n := range tn.nodes {
		if got := parkedAt(n, 2); got != 1 {
			t.Fatalf("node %d at height 1: %d jobs parked at height 2, want 1", i, got)
		}
	}
	deliverToAll(tn, 2, put(912, 1))
	tn.waitHeights(2)
	for i := range tn.nodes {
		select {
		case <-execs[i].done:
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d: height 2 committed and the parked execution did not run", i)
		}
		if execs[i].err != nil || execs[i].rec == nil {
			t.Fatalf("node %d: released execution err = %v, rec = %v", i, execs[i].err, execs[i].rec)
		}
	}

	ch := tn.watch(tx.ID)
	deliverToAll(tn, 3, tx)
	if r := tn.await(ch); !r.Committed || r.Block != 3 {
		t.Fatalf("result = %+v, want committed in block 3", r)
	}
	tn.waitHeights(3)
	for i, n := range tn.nodes {
		// Blocks 1 and 2 carried transactions no node had seen; block 3's
		// was already executed when it arrived.
		if mt := n.Metrics().Snapshot().MissingTxs; mt != 2 {
			t.Errorf("node %d: %d missing transactions, want 2", i, mt)
		}
		if c := count(t, n, `SELECT COUNT(*) FROM accounts WHERE id BETWEEN 910 AND 912`); c != 3 {
			t.Errorf("node %d: %d of three rows", i, c)
		}
	}
	tn.assertConsistent(3)
	stopAll(t, tn)
}
