package bcrdb

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

var demoGenesis = Genesis{
	SQL: []string{
		`CREATE TABLE accounts (id BIGINT PRIMARY KEY, owner TEXT, balance DOUBLE)`,
		`INSERT INTO accounts VALUES (1, 'alice', 100.0), (2, 'bob', 50.0)`,
	},
	Contracts: []string{
		`CREATE FUNCTION open_account(p_id BIGINT, p_owner TEXT, p_balance DOUBLE) RETURNS VOID AS $$
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
				RAISE EXCEPTION 'no such account';
			END IF;
			IF bal < p_amt THEN
				RAISE EXCEPTION 'insufficient funds';
			END IF;
			UPDATE accounts SET balance = balance - p_amt WHERE id = p_from;
			UPDATE accounts SET balance = balance + p_amt WHERE id = p_to;
		END;
		$$`,
	},
}

func demoOptions(flow Flow) Options {
	return Options{
		Orgs: []Org{
			{Name: "org1", Users: []string{"alice"}},
			{Name: "org2", Users: []string{"bob"}},
			{Name: "org3", Users: []string{"carol"}},
		},
		Flow:         flow,
		BlockSize:    10,
		BlockTimeout: 20 * time.Millisecond,
		Genesis:      demoGenesis,
	}
}

// flowLabel names a flow's subtest.
func flowLabel(f Flow) string {
	if f == ExecuteOrder {
		return "ExecuteOrder"
	}
	return "OrderThenExecute"
}

func TestNetworkEndToEnd(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		t.Run(flowLabel(flow), func(t *testing.T) {
			nw, err := NewNetwork(demoOptions(flow))
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()

			alice := nw.Client("alice")
			res, err := alice.Invoke("transfer", Int(1), Int(2), Float(30))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("transfer aborted: %s", res.Reason)
			}
			if err := nw.WaitHeight(int64(res.Block), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			rows, err := alice.QueryAll(`SELECT balance FROM accounts ORDER BY id`)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Rows[0][0].Float() != 70 || rows.Rows[1][0].Float() != 80 {
				t.Fatalf("balances = %v", rows.Rows)
			}
			if err := nw.VerifyConsistency(); err != nil {
				t.Fatal(err)
			}

			// A failing invocation aborts with the contract's message.
			res, err = alice.Invoke("transfer", Int(1), Int(2), Float(100000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed || !strings.Contains(res.Reason, "insufficient") {
				t.Fatalf("result = %+v", res)
			}
		})
	}
}

func TestNetworkBFTOrdering(t *testing.T) {
	opts := demoOptions(OrderThenExecute)
	opts.Ordering = OrderingBFT // 3 orgs → promoted to 4 orderers
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if len(nw.Orderers()) < 4 {
		t.Fatalf("BFT orderers = %d", len(nw.Orderers()))
	}
	bob := nw.Client("bob")
	res, err := bob.Invoke("open_account", Int(77), Text("bob2"), Float(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	if err := nw.WaitHeight(int64(res.Block), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeContractDeployment(t *testing.T) {
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		t.Run(flowLabel(flow), func(t *testing.T) {
			nw, err := NewNetwork(demoOptions(flow))
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()

			// The id range keeps the read indexed, as execute-order
			// requires of every contract read (§4.3).
			err = nw.DeployContract(`CREATE FUNCTION account_count() RETURNS BIGINT AS $$
			DECLARE
				n BIGINT;
			BEGIN
				SELECT COUNT(*) INTO n FROM accounts WHERE id > 0;
				RETURN n;
			END;
			$$`)
			if err != nil {
				t.Fatal(err)
			}
			carol := nw.Client("carol")
			res, err := carol.Invoke("account_count")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("aborted: %s", res.Reason)
			}
		})
	}
}

func TestWANProfileNetwork(t *testing.T) {
	opts := demoOptions(ExecuteOrder)
	opts.Profile = ProfileWAN
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	alice := nw.Client("alice")
	start := time.Now()
	res, err := alice.Invoke("open_account", Int(500), Text("x"), Float(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	// WAN latency should be visible end-to-end (≥ two one-way hops of
	// ~20ms each, scaled profile).
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("WAN commit suspiciously fast: %v", elapsed)
	}
	if err := nw.WaitHeight(int64(res.Block), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteOrderWithBFTOrdering(t *testing.T) {
	opts := demoOptions(ExecuteOrder)
	opts.Ordering = OrderingBFT
	nw, err := NewNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	alice := nw.Client("alice")
	for i := 0; i < 5; i++ {
		res, err := alice.Invoke("open_account", Int(int64(900+i)), Text("x"), Float(1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("tx %d aborted: %s", i, res.Reason)
		}
	}
	if err := nw.WaitHeight(nw.Height(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClientPrivateSchema(t *testing.T) {
	nw, err := NewNetwork(demoOptions(OrderThenExecute))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	alice := nw.Client("alice")
	if _, err := alice.ExecPrivate(`CREATE TABLE scratch (id BIGINT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ExecPrivate(`INSERT INTO scratch VALUES (1, 'mine')`); err != nil {
		t.Fatal(err)
	}
	res, err := alice.Query(`SELECT s.v, a.owner FROM scratch s JOIN accounts a ON a.id = s.id`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "mine" {
		t.Fatalf("cross-schema join = %v, %v", res, err)
	}
	// Other orgs' clients don't see it.
	bob := nw.Client("bob")
	if _, err := bob.Query(`SELECT * FROM scratch`); err == nil {
		t.Fatal("private table visible on another org's node")
	}
}

// TestNetworkRefusesBadBackend: a backend the network cannot give its
// nodes is refused before it serves anything, with an error that names
// the problem.
func TestNetworkRefusesBadBackend(t *testing.T) {
	for _, tc := range []struct {
		backend, dataDir string
		want             []string
	}{
		{"disk", "", []string{"disk backend", "data dir"}},
		{"tape", t.TempDir(), []string{`unknown backend "tape"`}},
	} {
		opts := demoOptions(OrderThenExecute)
		opts.Backend, opts.DataDir = tc.backend, tc.dataDir
		nw, err := NewNetwork(opts)
		if err == nil {
			nw.Close()
			t.Fatalf("backend %q, data dir %q: no error", tc.backend, tc.dataDir)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("backend %q, data dir %q: %v does not say %q", tc.backend, tc.dataDir, err, w)
			}
		}
	}
}

func TestUnknownUserPanics(t *testing.T) {
	nw, err := NewNetwork(demoOptions(OrderThenExecute))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer func() {
		if recover() == nil {
			t.Error("Client(unknown) should panic")
		}
	}()
	nw.Client("mallory")
}

func TestValueHelpers(t *testing.T) {
	if Int(5).Int() != 5 || Float(2.5).Float() != 2.5 || Text("x").Str() != "x" {
		t.Fatal("constructors broken")
	}
	if !Bool(true).Bool() || !Null().IsNull() || string(Bytes([]byte{1}).Bytes()) != "\x01" {
		t.Fatal("constructors broken")
	}
}

// TestSameBlockContractUpgrade pins the property that makes the commit
// turn unpartitionable by table: a contract call reads its own source
// from sys_contracts inside its transaction (§3.7), so an upgrade that
// commits earlier in the same block decides the fate of an invocation
// touching otherwise unrelated tables.
func TestSameBlockContractUpgrade(t *testing.T) {
	putSrc := func(replace, marker string) string {
		return `CREATE ` + replace + `FUNCTION put(p_k BIGINT) RETURNS VOID AS $$
		BEGIN
			INSERT INTO kv VALUES (p_k, '` + marker + `');
		END;
		$$`
	}
	for _, flow := range []Flow{OrderThenExecute, ExecuteOrder} {
		t.Run(flowLabel(flow), func(t *testing.T) {
			opts := demoOptions(flow)
			opts.BlockSize = 2 // the upgrade and the invocation fill one block
			opts.BlockTimeout = 50 * time.Millisecond
			opts.Genesis = Genesis{
				SQL:       []string{`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`},
				Contracts: []string{putSrc("", "v0")},
			}
			nw, err := NewNetwork(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			alice, admin := nw.Client("alice"), nw.Client("admin@org1")

			// valueOf returns kv.v for k on every node ("" when absent).
			valueOf := func(k int64) string {
				t.Helper()
				res, err := alice.QueryAll(`SELECT v FROM kv WHERE k = $1`, Int(k))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) == 0 {
					return ""
				}
				return res.Rows[0][0].Str()
			}
			seqOf := func(id string) int64 {
				t.Helper()
				res, err := alice.Query(`SELECT seq FROM sys_ledger WHERE txid = $1`, Text(id))
				if err != nil || len(res.Rows) != 1 {
					t.Fatalf("sys_ledger row of %s: %v, %v", id, res, err)
				}
				return res.Rows[0][0].Int()
			}

			old := "v0"
			for attempt := int64(1); attempt <= 10; attempt++ {
				marker := fmt.Sprintf("v%d", attempt)
				id, err := nw.proposeDeployment(putSrc("OR REPLACE ", marker))
				if err != nil {
					t.Fatal(err)
				}
				k := 100 * attempt
				up, err := admin.Submit("submit_deploytx", id)
				if err != nil {
					t.Fatal(err)
				}
				inv, err := alice.Submit("put", Int(k))
				if err != nil {
					t.Fatal(err)
				}
				upRes, err := up.Await(10 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				invRes, err := inv.Await(10 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if !upRes.Committed {
					t.Fatalf("submit_deploytx aborted: %s", upRes.Reason)
				}
				last := upRes.Block
				if invRes.Block > last {
					last = invRes.Block
				}
				if err := nw.WaitHeight(int64(last), 10*time.Second); err != nil {
					t.Fatal(err)
				}

				// However the pair resolved, the row matches the verdict
				// and the next block runs the new source on every node.
				want := ""
				if invRes.Committed {
					want = old
				}
				if got := valueOf(k); got != want {
					t.Fatalf("attempt %d: kv[%d] = %q, want %q (invocation %+v)", attempt, k, got, want, invRes)
				}
				next, err := alice.Invoke("put", Int(k+1))
				if err != nil {
					t.Fatal(err)
				}
				if !next.Committed {
					t.Fatalf("invocation after the upgrade aborted: %s", next.Reason)
				}
				if err := nw.WaitHeight(int64(next.Block), 10*time.Second); err != nil {
					t.Fatal(err)
				}
				if got := valueOf(k + 1); got != marker {
					t.Fatalf("attempt %d: kv[%d] = %q, want the upgraded source's %q", attempt, k+1, got, marker)
				}
				if err := nw.VerifyConsistency(); err != nil {
					t.Fatal(err)
				}
				old = marker

				if upRes.Block != invRes.Block || seqOf(up.ID) > seqOf(inv.ID) {
					continue // not the interleaving under test; upgrade again
				}
				// Same block, upgrade first: the invocation read the
				// sys_contracts row the upgrade superseded. Order-then-
				// execute aborts it; execute-order may also serialize it
				// before the upgrade (one rw edge, no cycle), which the
				// checks above already held to the old source.
				if flow == OrderThenExecute && invRes.Committed {
					t.Fatalf("invocation committed behind a same-block upgrade: %+v", invRes)
				}
				t.Logf("attempt %d: same block %d, invocation committed=%v (%s)", attempt, invRes.Block, invRes.Committed, invRes.Reason)
				return
			}
			t.Fatal("the upgrade and the invocation never shared a block in 10 attempts")
		})
	}
}
