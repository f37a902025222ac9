package bcrdb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcrdb/internal/core"
	"bcrdb/internal/simnet"
	"bcrdb/internal/transport"
)

// remoteOptions is demoOptions plus the deterministic identities remote
// clients need to sign verifiably.
func remoteOptions(flow Flow, secret string) Options {
	opts := demoOptions(flow)
	opts.IdentitySecret = secret
	opts.Retry = RetryPolicy{Attempts: 4, Timeout: 5 * time.Second, Backoff: 50 * time.Millisecond}
	return opts
}

// TestRemoteClientOverWire is the acceptance path: a transaction
// submitted by a dialed client over real HTTP commits and its
// notification streams back over the wire. Order-then-execute also pins
// that the wire client fails over (a retry walks past a stopped orderer),
// execute-order that a closed dialed client reports ErrClosed.
func TestRemoteClientOverWire(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		t.Run(flowLabel(flow), func(t *testing.T) {
			nw, err := NewNetwork(remoteOptions(flow, "wire-secret"))
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			srv, err := nw.Serve(0, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			rc, err := DialRemote(RemoteConfig{
				URL:            srv.URL(),
				Username:       "alice",
				IdentitySecret: "wire-secret",
				Retry:          RetryPolicy{Attempts: 4, Timeout: 5 * time.Second, Backoff: 50 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()

			res, err := rc.Invoke("transfer", Int(1), Int(2), Float(30))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("remote transfer aborted: %s", res.Reason)
			}
			rows, err := rc.Query(`SELECT balance FROM accounts ORDER BY id`)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Rows[0][0].Float() != 70 || rows.Rows[1][0].Float() != 80 {
				t.Fatalf("balances over the wire = %v", rows.Rows)
			}
			info, err := rc.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Node != "db.org1" || info.Org != "org1" ||
				info.DeliveringOrderer != nw.Node(0).DeliveringOrderer() || len(info.Alerts) != 0 {
				t.Fatalf("info = %+v", info)
			}

			if flow == ExecuteOrder {
				rc.Close()
				if _, err := rc.Invoke("transfer", Int(1), Int(2), Float(1)); !errors.Is(err, ErrClosed) {
					t.Fatalf("Invoke on a closed dialed client returned %v, want ErrClosed", err)
				}
				return
			}
			// Stop an orderer node 0 does not deliver from: a third of the
			// ids hash to it, and only a retry that moves on commits them.
			stopped := (slices.Index(nw.Orderers(), nw.Node(0).DeliveringOrderer()) + 1) % len(nw.Orderers())
			nw.StopOrderer(stopped)
			for i := 0; i < 12; i++ {
				res, err := rc.Invoke("open_account", Int(int64(100+i)), Text("x"), Float(1))
				if err != nil || !res.Committed {
					t.Fatalf("invoke %d with orderer %d stopped: %+v, %v", i, stopped, res, err)
				}
			}
		})
	}
}

// TestDialRemoteSignsAsTheUsersOrg: a user of org2 dials org1's node.
// The client takes the user's org and role from the replicated sys_certs
// table, not from the node it dialed, so its signature verifies and the
// call commits; a user sys_certs does not hold is a dial error that
// names the user.
func TestDialRemoteSignsAsTheUsersOrg(t *testing.T) {
	nw, err := NewNetwork(remoteOptions(ExecuteOrder, "cross-org-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	srv, err := nw.Serve(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc, err := DialRemote(RemoteConfig{
		URL: srv.URL(), Username: "bob", IdentitySecret: "cross-org-secret",
		Retry: RetryPolicy{Attempts: 4, Timeout: 5 * time.Second, Backoff: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	res, err := rc.Invoke("transfer", Int(1), Int(2), Float(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("bob's transfer through org1's node aborted: %s", res.Reason)
	}

	_, err = DialRemote(RemoteConfig{URL: srv.URL(), Username: "mallory", IdentitySecret: "cross-org-secret"})
	if err == nil || !strings.Contains(err.Error(), `"mallory"`) {
		t.Fatalf("dialing as an unknown user returned %v, want an error naming the user", err)
	}
}

// TestWireDifferential runs the identical transaction sequence through
// the in-process client (the one client over a Direct transport) and
// through a dialed client over HTTP, and demands bit-identical outcomes:
// same state digests, same sys_ledger rows.
// ExecuteOrder flow with awaited serial invokes makes every run fully
// deterministic (deterministic tx ids, one tx per block), and the
// shared IdentitySecret makes the genesis certificates — which are part
// of the hashed state — identical too.
func TestWireDifferential(t *testing.T) {
	const secret = "differential-secret"
	type op struct {
		contract string
		args     []Value
	}
	ops := []op{
		{"transfer", []Value{Int(1), Int(2), Float(10)}},
		{"open_account", []Value{Int(3), Text("carol"), Float(500)}},
		{"transfer", []Value{Int(3), Int(1), Float(250)}},
		{"transfer", []Value{Int(2), Int(3), Float(5)}},
	}

	retry := RetryPolicy{Attempts: 4, Timeout: 5 * time.Second, Backoff: 50 * time.Millisecond}
	run := func(leg string) (*Network, func(string, []Value) (TxResult, error), func()) {
		nw, err := NewNetwork(remoteOptions(ExecuteOrder, secret))
		if err != nil {
			t.Fatal(err)
		}
		if leg == "local" {
			alice := nw.Client("alice")
			return nw, func(c string, a []Value) (TxResult, error) { return alice.Invoke(c, a...) }, nw.Close
		}
		srv, err := nw.Serve(0, "127.0.0.1:0")
		if err != nil {
			nw.Close()
			t.Fatal(err)
		}
		rc, err := DialRemote(RemoteConfig{
			URL: srv.URL(), Username: "alice", IdentitySecret: secret, Retry: retry,
		})
		if err != nil {
			srv.Close()
			nw.Close()
			t.Fatal(err)
		}
		cleanup := func() { rc.Close(); srv.Close(); nw.Close() }
		return nw, func(c string, a []Value) (TxResult, error) { return rc.Invoke(c, a...) }, cleanup
	}

	type outcome struct {
		height int64
		digest [32]byte
		ledger string
	}
	execute := func(leg string) outcome {
		nw, invoke, cleanup := run(leg)
		defer cleanup()
		for i, o := range ops {
			res, err := invoke(o.contract, o.args)
			if err != nil {
				t.Fatalf("op %d (%s): %v", i, leg, err)
			}
			if !res.Committed {
				t.Fatalf("op %d (%s) aborted: %s", i, leg, res.Reason)
			}
			// Settle every replica before the next snapshot is taken so
			// all runs observe the same heights at the same steps.
			if err := nw.WaitHeight(int64(res.Block), 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		h := nw.Node(0).Height()
		rows, err := nw.Client("alice").Query(`SELECT txid, block, status FROM sys_ledger ORDER BY block, txid`)
		if err != nil {
			t.Fatal(err)
		}
		var ledger string
		for _, r := range rows.Rows {
			ledger += fmt.Sprintf("%s|%d|%s\n", r[0].Str(), r[1].Int(), r[2].Str())
		}
		return outcome{height: h, digest: nw.Node(0).StateHash(h), ledger: ledger}
	}

	local, got := execute("local"), execute("http")
	if local.height != got.height {
		t.Fatalf("heights diverge: local %d, http %d", local.height, got.height)
	}
	if local.digest != got.digest {
		t.Fatalf("state digests diverge at height %d (local vs http)", local.height)
	}
	if local.ledger != got.ledger {
		t.Fatalf("sys_ledger diverges:\nlocal:\n%s\nhttp:\n%s", local.ledger, got.ledger)
	}
}

// TestPeerForwardMatchesRoute ties the two ends of the one routing rule
// together: the orderer a peer forwards an execute-order submission to is
// the one attempt 0 of an order-then-execute client picks for the same id,
// so whichever way an id travels it reaches the same cutter first.
func TestPeerForwardMatchesRoute(t *testing.T) {
	nw, err := NewNetwork(demoOptions(ExecuteOrder))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Before the first block seals (checkpoints go to every orderer) the
	// forward is the only message a node sends an orderer; the fault hook
	// sees every message's link.
	var mu sync.Mutex
	var forwardedTo string
	nw.Net().SetFaultsFn(func(from, to string) simnet.Faults {
		if from == nw.Node(0).Name() && strings.HasPrefix(to, "orderer") {
			mu.Lock()
			if forwardedTo == "" {
				forwardedTo = to
			}
			mu.Unlock()
		}
		return simnet.Faults{}
	})
	p, err := nw.Client("alice").Submit("open_account", Int(77), Text("x"), Float(1))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := p.Await(10 * time.Second); err != nil || !res.Committed {
		t.Fatalf("submit: %+v, %v", res, err)
	}
	route := nw.route(nw.Node(0))
	route.Flow = OrderThenExecute
	want, _ := route.Dest(p.ID, 0)
	mu.Lock()
	defer mu.Unlock()
	if forwardedTo != want {
		t.Fatalf("peer forwarded %s to %s; an order-then-execute client's attempt 0 goes to %s", p.ID, forwardedTo, want)
	}
}

// streamWatch wraps a client's transport and counts the commit streams
// the client's follower opened and how many of them are still open. Call
// watchStreams before the client's first awaited submission.
type streamWatch struct {
	transport.Transport
	opened, open atomic.Int64
}

func watchStreams(c *Client) *streamWatch {
	w := &streamWatch{Transport: c.tr}
	c.tr = w
	return w
}

func (w *streamWatch) CommitStream(ctx context.Context) (<-chan core.TxResult, func(), error) {
	ch, stop, err := w.Transport.CommitStream(ctx)
	if err != nil {
		return ch, stop, err
	}
	w.opened.Add(1)
	w.open.Add(1)
	out := make(chan core.TxResult)
	go func() {
		defer w.open.Add(-1)
		defer close(out)
		for r := range ch {
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, stop, nil
}

// TestCommitStreamReconnect drops the server mid-session and asserts
// (1) the client sees its stream end and (2) the client's stream
// follower redials a replacement server on the same address and resumes
// receiving commit notifications. That a closed server releases the
// stream's node-side subscription is internal/transport's
// TestServerCloseReleasesStreams.
func TestCommitStreamReconnect(t *testing.T) {
	nw, err := NewNetwork(remoteOptions(ExecuteOrder, "reconnect-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	srv, err := nw.Serve(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	rc, err := DialRemote(RemoteConfig{
		URL: srv.URL(), Username: "alice", IdentitySecret: "reconnect-secret",
		Retry: RetryPolicy{Attempts: 6, Timeout: 2 * time.Second, Backoff: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	streams := watchStreams(rc)

	if res, err := rc.Invoke("transfer", Int(1), Int(2), Float(5)); err != nil || !res.Committed {
		t.Fatalf("pre-drop invoke: %v / %+v", err, res)
	}
	waitFor(t, "stream connected", func() bool { return streams.open.Load() == 1 })

	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	waitFor(t, "dropped stream ended", func() bool { return streams.open.Load() == 0 })

	// Same address, fresh server: the follower must find it on its own.
	srv2, err := nw.Serve(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "stream reconnected", func() bool { return streams.open.Load() == 1 && streams.opened.Load() == 2 })

	res, err := rc.Invoke("transfer", Int(2), Int(1), Float(3))
	if err != nil {
		t.Fatalf("post-reconnect invoke: %v", err)
	}
	if !res.Committed {
		t.Fatalf("post-reconnect transfer aborted: %s", res.Reason)
	}
}

// TestFollowerRedialsAfterFailedOpen: when the very first stream open
// fails (the server went away between dial and the first awaited
// submission) the follower must still run and redial with backoff, and
// the invoke must resolve once a server is back on the address.
func TestFollowerRedialsAfterFailedOpen(t *testing.T) {
	nw, err := NewNetwork(remoteOptions(OrderThenExecute, "redial-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	srv, err := nw.Serve(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := DialRemote(RemoteConfig{
		URL: srv.URL(), Username: "alice", IdentitySecret: "redial-secret",
		Retry: RetryPolicy{Attempts: 8, Timeout: 2 * time.Second, Backoff: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	streams := watchStreams(rc)
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	type outcome struct {
		res TxResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rc.Invoke("open_account", Int(4242), Text("x"), Float(1))
		done <- outcome{res, err}
	}()
	time.Sleep(250 * time.Millisecond) // the first open and a redial or two are refused
	srv2, err := nw.Serve(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "follower redialed the new server", func() bool { return streams.open.Load() == 1 })
	select {
	case o := <-done:
		if o.err != nil || !o.res.Committed {
			t.Fatalf("invoke across the outage: %+v, %v", o.res, o.err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("invoke never resolved after the server came back")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
