package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bcrdb/internal/ordering"
	"bcrdb/internal/types"
)

func TestMetricsWindowMath(t *testing.T) {
	var m Metrics
	a := m.Snapshot()
	m.BlocksReceived.Add(10)
	m.BlocksProcessed.Add(8)
	m.BlockProcessNanos.Add(int64(80 * time.Millisecond))
	m.BlockExecNanos.Add(int64(48 * time.Millisecond))
	m.BlockCommitNanos.Add(int64(32 * time.Millisecond))
	m.TxExecNanos.Add(int64(16 * time.Millisecond))
	m.TxExecCount.Add(16)
	m.TxCommitted.Add(100)
	m.MissingTxs.Add(4)
	m.BusyNanos.Add(int64(50 * time.Millisecond))
	b := m.Snapshot()
	b.At = a.At.Add(time.Second) // pin the window to exactly 1s

	w := b.Sub(a)
	if w.BRR() != 10 || w.BPR() != 8 {
		t.Errorf("brr=%v bpr=%v", w.BRR(), w.BPR())
	}
	if w.BPT() != 10 { // 80ms over 8 blocks
		t.Errorf("bpt = %v", w.BPT())
	}
	if w.BET() != 6 || w.BCT() != 4 {
		t.Errorf("bet=%v bct=%v", w.BET(), w.BCT())
	}
	if w.TET() != 1 {
		t.Errorf("tet = %v", w.TET())
	}
	if w.MT() != 4 {
		t.Errorf("mt = %v", w.MT())
	}
	if w.SU() != 5 {
		t.Errorf("su = %v", w.SU())
	}
	if w.Throughput() != 100 {
		t.Errorf("tput = %v", w.Throughput())
	}
}

func TestMetricsZeroWindowSafe(t *testing.T) {
	var m Metrics
	a := m.Snapshot()
	b := m.Snapshot()
	b.At = a.At.Add(time.Second)
	w := b.Sub(a)
	if w.BPT() != 0 || w.TET() != 0 {
		t.Error("zero-count averages should be 0, not NaN")
	}
}

// TestSnapshotCoversEveryCounter is the oracle of the counter list: every
// int64 of Snapshot but the seal-queue gauge reads the Metrics counter of
// the same name, and Sub differences each one.
func TestSnapshotCoversEveryCounter(t *testing.T) {
	var m Metrics
	var names []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Snapshot{})) {
		if f.Type.Kind() == reflect.Int64 && f.Name != "SealQueueDepth" {
			names = append(names, f.Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("Snapshot has no counters")
	}
	counter := func(name string) *atomic.Int64 {
		f := reflect.ValueOf(&m).Elem().FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("Snapshot.%s has no Metrics counter", name)
		}
		return f.Addr().Interface().(*atomic.Int64)
	}
	for i, name := range names {
		counter(name).Add(int64(1000 * (i + 1)))
	}
	a := m.Snapshot()
	for i, name := range names {
		counter(name).Add(int64(i + 1))
	}
	b := m.Snapshot()
	w := b.Sub(a)
	for i, name := range names {
		if got, want := reflect.ValueOf(b).FieldByName(name).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("Snapshot().%s = %d, want %d", name, got, want)
		}
		if got := reflect.ValueOf(w.Diff).FieldByName(name).Int(); got != int64(i+1) {
			t.Errorf("Sub: Diff.%s = %d, want %d", name, got, i+1)
		}
	}

	a.SealQueueDepth, b.SealQueueDepth = 5, 3
	if d := b.Sub(a).Diff.SealQueueDepth; d != 3 {
		t.Fatalf("Sub: Diff.SealQueueDepth = %d, want the later snapshot's 3", d)
	}
}

// TestSealQueueDepthDerived checks the gauge is the blocks committed but
// not yet sealed, never below zero.
func TestSealQueueDepthDerived(t *testing.T) {
	var m Metrics
	m.BlocksProcessed.Add(5)
	m.BlocksSealed.Add(3)
	if d := m.Snapshot().SealQueueDepth; d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	m.BlocksSealed.Add(3) // the two loads are not one instant
	if d := m.Snapshot().SealQueueDepth; d != 0 {
		t.Fatalf("depth = %d, want the clamp's 0", d)
	}
}

// TestLateJoiningEmptyNodeCatchesUp covers a node that starts with an
// empty chain after the network has made progress: catch-up must fetch
// everything from peers (§3.6 "retrieves any missing blocks").
func TestLateJoiningEmptyNodeCatchesUp(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg: ordering.Config{BlockSize: 2, BlockTimeout: 10 * time.Millisecond}})

	var last uint64
	for i := 0; i < 6; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(3000+i)), types.NewString("x"), types.NewFloat(1))
		r := tn.await(ch)
		if r.Block > last {
			last = r.Block
		}
	}
	tn.waitHeights(int64(last))

	// A brand-new node for org1 joins late (fresh name to avoid endpoint
	// collision with the running db0).
	cfg := tn.nodes[0].cfg
	cfg.Name = "db-late"
	late, err := NewNode(cfg, tn.nodes[0].signer, tn.netReg.Clone(), tn.net)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Bootstrap(Genesis{Certs: genesisCerts(tn), SQL: testGenesisSQL, Contracts: testContracts}); err != nil {
		t.Fatal(err)
	}
	if err := late.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Stop)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && late.Height() < int64(last) {
		time.Sleep(5 * time.Millisecond)
	}
	if late.Height() < int64(last) {
		t.Fatalf("late node stuck at height %d, want %d", late.Height(), last)
	}
	if late.StateHash(int64(last)) != tn.nodes[0].StateHash(int64(last)) {
		t.Fatal("late joiner diverges")
	}
}

// TestCheckpointEveryN covers checkpoint batching (§3.3.4: "the hash of
// write sets can be computed for a preconfigured number of blocks").
func TestCheckpointEveryN(t *testing.T) {
	tn := newTestNetWithCheckpointEvery(t, 3)
	var last uint64
	for i := 0; i < 9; i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(4000+i)), types.NewString("x"), types.NewFloat(1))
		r := tn.await(ch)
		if r.Block > last {
			last = r.Block
		}
	}
	tn.waitHeights(int64(last))
	// Push extra traffic so checkpoint messages circulate.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		ch, _ := tn.submit("alice", "put_account",
			types.NewInt(int64(4100+i)), types.NewString("x"), types.NewFloat(1))
		tn.await(ch)
		if tn.nodes[0].LastCheckpoint() >= 3 {
			break
		}
	}
	cp := tn.nodes[0].LastCheckpoint()
	if cp == 0 {
		t.Fatal("no checkpoint recorded")
	}
	if cp%3 != 0 {
		t.Fatalf("checkpoint %d not on the every-3 schedule", cp)
	}
	for _, n := range tn.nodes {
		if len(n.Alerts()) != 0 {
			t.Fatalf("alerts: %v", n.Alerts())
		}
	}
}

// newTestNetWithCheckpointEvery builds the standard test network with a
// checkpoint interval.
func newTestNetWithCheckpointEvery(t *testing.T, every uint64) *testNet {
	t.Helper()
	tn := newTestNet(t, netOpts{flow: OrderThenExecute,
		cfg:             ordering.Config{BlockSize: 1, BlockTimeout: 10 * time.Millisecond},
		checkpointEvery: every})
	return tn
}
