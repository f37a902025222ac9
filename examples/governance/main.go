// Governance: the §3.7 smart-contract deployment workflow — contracts
// are proposed, reviewed, approved by every organization's admin, and
// only then activated; rejections and comments are recorded immutably.
//
// Run: go run ./examples/governance
package main

import (
	"fmt"
	"log"
	"time"

	"bcrdb"
)

func main() {
	nw, err := bcrdb.NewNetwork(bcrdb.Options{
		Orgs: []bcrdb.Org{
			{Name: "org1", Users: []string{"alice"}},
			{Name: "org2", Users: []string{"bob"}},
		},
		Flow:         bcrdb.OrderThenExecute,
		BlockSize:    5,
		BlockTimeout: 30 * time.Millisecond,
		Genesis: bcrdb.Genesis{
			SQL: []string{`CREATE TABLE notes (id BIGINT PRIMARY KEY, body TEXT)`},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Close()

	admin1 := nw.Client("admin@org1")
	admin2 := nw.Client("admin@org2")
	alice := nw.Client("alice")

	must := func(r bcrdb.TxResult, err error) bcrdb.TxResult {
		if err != nil {
			log.Fatal(err)
		}
		if !r.Committed {
			log.Fatalf("aborted: %s", r.Reason)
		}
		return r
	}

	src := `CREATE FUNCTION add_note(p_id BIGINT, p_body TEXT) RETURNS VOID AS $$
BEGIN
	INSERT INTO notes VALUES (p_id, p_body);
END;
$$ LANGUAGE plpgsql;`

	// 1. org1's admin proposes the contract.
	must(admin1.Invoke("create_deploytx", bcrdb.Text(src)))
	row, err := admin1.Query(`SELECT MAX(id) FROM sys_deployments`)
	if err != nil {
		log.Fatal(err)
	}
	id := row.Rows[0][0]
	fmt.Printf("deployment %v proposed by admin@org1\n", id)

	// 2. A client cannot invoke it yet — it is not deployed.
	if r, err := alice.Invoke("add_note", bcrdb.Int(1), bcrdb.Text("too early")); err != nil {
		log.Fatal(err)
	} else if r.Committed {
		log.Fatal("undeployed contract executed!")
	} else {
		fmt.Printf("alice's early call correctly failed: %s\n", r.Reason)
	}

	// 3. org2's admin reviews: comments, then approves.
	must(admin2.Invoke("comment_deploytx", id, bcrdb.Text("LGTM, ship it")))
	must(admin1.Invoke("approve_deploytx", id))

	// Submitting before all orgs approved fails.
	if r, _ := admin1.Invoke("submit_deploytx", id); r.Committed {
		log.Fatal("submit succeeded without org2's approval!")
	} else {
		fmt.Printf("premature submit rejected: %s\n", r.Reason)
	}

	must(admin2.Invoke("approve_deploytx", id))
	must(admin1.Invoke("submit_deploytx", id))
	fmt.Println("contract approved by both orgs and deployed")

	// 4. Now clients can use it.
	must(alice.Invoke("add_note", bcrdb.Int(1), bcrdb.Text("hello, governed world")))
	rows, err := alice.Query(`SELECT body FROM notes WHERE id = 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("note recorded: %q\n", rows.Rows[0][0])

	// 5. The full governance history is on the ledger.
	dep, err := alice.Query(`SELECT status, approvals, comments FROM sys_deployments WHERE id = $1`, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment record: status=%v approvals=%v comments=%v\n",
		dep.Rows[0][0], dep.Rows[0][1], dep.Rows[0][2])

	// 6. A malicious proposal gets rejected — immutably.
	must(admin2.Invoke("create_deploytx", bcrdb.Text(`CREATE FUNCTION drain() RETURNS VOID AS $$ BEGIN DELETE FROM notes WHERE id > 0; END; $$`)))
	// Read the id back through the client that wrote it: its node has the
	// row, org1's node may still trail the block.
	row, err = admin2.Query(`SELECT MAX(id) FROM sys_deployments`)
	if err != nil {
		log.Fatal(err)
	}
	id2 := row.Rows[0][0]
	must(admin1.Invoke("reject_deploytx", id2, bcrdb.Text("drains the notes table")))
	dep, _ = alice.Query(`SELECT status, rejections FROM sys_deployments WHERE id = $1`, id2)
	fmt.Printf("proposal %v: status=%v rejection=%v\n", id2, dep.Rows[0][0], dep.Rows[0][1])
}
