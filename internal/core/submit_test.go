package core

import (
	"crypto/ed25519"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bcrdb/internal/ledger"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// TestDoorBatchRefusesForgedAndUnknown sends node 0's door a forgery
// among 31 honest submissions, so the first door batch of
// prewarmChunkFloor meets it in one equation, and then a submission from
// a user sys_certs does not know. Each bad one must hear its door
// reason and reach no block on any node; every honest one must commit
// on every node.
func TestDoorBatchRefusesForgedAndUnknown(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: ExecuteOrder})
	snapshot := tn.nodes[0].Height()
	acct := func(id int) []types.Value {
		return []types.Value{types.NewInt(int64(id)), types.NewString("door"), types.NewFloat(1)}
	}
	var honest []*ledger.Transaction
	for i := 0; i < prewarmChunkFloor-1; i++ {
		honest = append(honest, tn.buildTx("alice", "put_account", acct(4000+i), snapshot))
	}
	forged := tn.buildTx("bob", "put_account", acct(3999), snapshot)
	forged.Signature[32] ^= 0x01 // S off by one: it decodes, and fails the equation
	unknown := &ledger.Transaction{Username: "mallory", Contract: "put_account", Args: acct(3998), Snapshot: snapshot}
	unknown.ID = ledger.ComputeID(unknown.Username, unknown.Contract, unknown.Args, snapshot)
	unknown.Signature = ed25519.Sign(ed25519.NewKeyFromSeed(clientSeed("mallory")), unknown.SignBytes())
	bad := map[string]string{
		forged.ID:  "signature verification failed",
		unknown.ID: "unknown user",
	}

	results := make([]<-chan TxResult, len(tn.nodes))
	for i, n := range tn.nodes {
		results[i] = n.SubscribeAll()
	}
	at := len(honest) / 2
	subs := append(append(append([]*ledger.Transaction{}, honest[:at]...), forged), honest[at:]...)
	for _, tx := range append(subs, unknown) {
		tn.submitTo(0, tx)
	}

	var top uint64
	for i, ch := range results {
		want := len(honest)
		if i == 0 {
			want += len(bad) // only the door that refused them answers them
		}
		got := make(map[string]TxResult, want)
		deadline := time.After(15 * time.Second)
		for len(got) < want {
			select {
			case r := <-ch:
				got[r.ID] = r
			case <-deadline:
				t.Fatalf("node %d published %d of %d results", i, len(got), want)
			}
		}
		for _, tx := range honest {
			r, ok := got[tx.ID]
			if !ok || !r.Committed {
				t.Fatalf("node %d: honest %s got %+v", i, tx.ID, r)
			}
			top = max(top, r.Block)
		}
		for id, reason := range bad {
			r, ok := got[id]
			if ok != (i == 0) {
				t.Fatalf("node %d published %+v for a refused submission", i, r)
			}
			if ok && (r.Committed || !strings.HasPrefix(r.Reason, "authentication: ") || !strings.Contains(r.Reason, reason)) {
				t.Fatalf("door answered %s with %+v, want %q", id, r, reason)
			}
		}
	}
	tn.waitHeights(int64(top))
	for i, n := range tn.nodes {
		for id := range bad {
			res, err := n.Query(`SELECT txid FROM sys_ledger WHERE txid = $1`, types.NewString(id))
			if err != nil || len(res.Rows) != 0 {
				t.Fatalf("node %d: refused %s in a block: %v, %v", i, id, res, err)
			}
		}
	}

	// A peer forward is authenticated too: the forgery relayed as one
	// is not executed.
	n := tn.nodes[1]
	n.onSubmit(simnet.Message{From: tn.nodes[0].Name(), To: n.Name(), Kind: KindForward,
		Payload: ledger.MarshalTransaction(forged)}, false)
	n.execMu.Lock()
	_, ran := n.executing[forged.ID]
	n.execMu.Unlock()
	if ran {
		t.Fatal("a forged peer forward was executed")
	}
}

// TestDoorWindowReleasesLoneSubmission: a submission at an idle door is
// admitted when the window closes, with no further arrival, and commits.
func TestDoorWindowReleasesLoneSubmission(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: ExecuteOrder})
	n := tn.nodes[0]
	tx := tn.buildTx("alice", "put_account",
		[]types.Value{types.NewInt(5000), types.NewString("lone"), types.NewFloat(1)}, n.Height())
	ch := tn.watch(tx.ID)
	start := time.Now()
	tn.submitTo(0, tx)
	for {
		n.execMu.Lock()
		_, admitted := n.executing[tx.ID]
		n.execMu.Unlock()
		if admitted {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("the door never admitted a lone submission")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if waited := time.Since(start); waited < doorWindow {
		t.Fatalf("a lone submission was admitted after %v, before the %v window closed", waited, doorWindow)
	}
	if r := tn.await(ch); !r.Committed {
		t.Fatalf("lone submission: %+v", r)
	}
}

// TestStopWithOpenDoorWindow: Stop returns while the door holds a
// submission in an open window, and the node's door goroutine is gone.
func TestStopWithOpenDoorWindow(t *testing.T) {
	tn := newTestNet(t, netOpts{flow: ExecuteOrder, nNodes: 1})
	n := tn.nodes[0]
	tx := tn.buildTx("alice", "put_account",
		[]types.Value{types.NewInt(6000), types.NewString("stop"), types.NewFloat(1)}, n.Height())
	tn.submitTo(0, tx)
	for len(n.doorCh) > 0 { // the door has taken it: its window is open
		runtime.Gosched()
	}
	door := fmt.Sprintf("core.(*Node).doorLoop(%p", n)
	if !strings.Contains(goroutines(), door) {
		t.Fatal("no door goroutine before Stop")
	}
	stopped := make(chan struct{})
	go func() {
		n.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with a door window open")
	}
	if strings.Contains(goroutines(), door) {
		t.Fatal("the door goroutine outlived Stop")
	}
}

// goroutines is every goroutine's stack.
func goroutines() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
