// Finance: the analytical smart contracts the paper's introduction
// motivates — complex joins and grouped aggregates inside contracts
// (impossible to express efficiently on key-value blockchains), plus
// SSI preventing a classic write-skew fraud.
//
// Run: go run ./examples/finance
package main

import (
	"fmt"
	"log"
	"time"

	"bcrdb"
)

var contracts = []string{`
CREATE FUNCTION settle_region(p_region BIGINT, p_out BIGINT) RETURNS VOID AS $$
DECLARE
	v_total DOUBLE;
	v_cnt BIGINT;
BEGIN
	SELECT SUM(oi.qty * oi.price), COUNT(*) INTO v_total, v_cnt
	FROM orders o JOIN order_items oi ON oi.order_id = o.id
	WHERE o.region = p_region;
	IF v_cnt = 0 THEN
		RAISE EXCEPTION 'empty region';
	END IF;
	INSERT INTO settlements VALUES (p_out, p_region, v_total, v_cnt);
END;
$$ LANGUAGE plpgsql;`, `
CREATE FUNCTION top_desk(p_grp BIGINT, p_out BIGINT) RETURNS VOID AS $$
DECLARE
	w_desk BIGINT;
	w_total DOUBLE;
BEGIN
	SELECT desk, SUM(pnl) INTO w_desk, w_total
	FROM trades WHERE grp = p_grp
	GROUP BY desk
	ORDER BY SUM(pnl) DESC, desk ASC
	LIMIT 1;
	INSERT INTO desk_awards VALUES (p_out, p_grp, w_desk, COALESCE(w_total, 0.0));
END;
$$ LANGUAGE plpgsql;`, `
CREATE FUNCTION joint_withdraw(p_a BIGINT, p_b BIGINT, p_from BIGINT, p_amt DOUBLE) RETURNS VOID AS $$
DECLARE
	a_bal DOUBLE;
	b_bal DOUBLE;
BEGIN
	SELECT balance INTO a_bal FROM treasury WHERE id = p_a;
	SELECT balance INTO b_bal FROM treasury WHERE id = p_b;
	IF a_bal + b_bal < p_amt THEN
		RAISE EXCEPTION 'joint reserve too low';
	END IF;
	UPDATE treasury SET balance = balance - p_amt WHERE id = p_from;
END;
$$ LANGUAGE plpgsql;`}

var genesisSQL = []string{
	`CREATE TABLE orders (id BIGINT PRIMARY KEY, region BIGINT NOT NULL, customer BIGINT)`,
	`CREATE INDEX orders_region ON orders (region)`,
	`CREATE TABLE order_items (id BIGINT PRIMARY KEY, order_id BIGINT NOT NULL, qty BIGINT, price DOUBLE)`,
	`CREATE INDEX order_items_order ON order_items (order_id)`,
	`CREATE TABLE settlements (id BIGINT PRIMARY KEY, region BIGINT, total DOUBLE, cnt BIGINT)`,
	`CREATE TABLE trades (id BIGINT PRIMARY KEY, grp BIGINT NOT NULL, desk BIGINT, pnl DOUBLE)`,
	`CREATE INDEX trades_grp ON trades (grp)`,
	`CREATE TABLE desk_awards (id BIGINT PRIMARY KEY, grp BIGINT, desk BIGINT, total DOUBLE)`,
	`CREATE TABLE treasury (id BIGINT PRIMARY KEY, balance DOUBLE)`,
	`INSERT INTO treasury VALUES (1, 100.0), (2, 100.0)`,
	// Two regions of orders with line items.
	`INSERT INTO orders VALUES (1, 10, 500), (2, 10, 501), (3, 20, 502)`,
	`INSERT INTO order_items VALUES
		(1, 1, 2, 10.0), (2, 1, 1, 5.5), (3, 2, 3, 7.0), (4, 3, 10, 99.0)`,
	// Trading desks.
	`INSERT INTO trades VALUES
		(1, 1, 100, 50.0), (2, 1, 100, -20.0), (3, 1, 200, 45.0),
		(4, 1, 200, -10.0), (5, 1, 300, 12.0)`,
}

func main() {
	nw, err := bcrdb.NewNetwork(bcrdb.Options{
		Orgs: []bcrdb.Org{
			{Name: "bankA", Users: []string{"ana"}},
			{Name: "bankB", Users: []string{"bo"}},
			{Name: "regulator", Users: []string{"rex"}},
		},
		Flow:         bcrdb.ExecuteOrder,
		BlockSize:    20,
		BlockTimeout: 30 * time.Millisecond,
		Genesis:      bcrdb.Genesis{SQL: genesisSQL, Contracts: contracts},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Close()

	ana := nw.Client("ana")
	bo := nw.Client("bo")

	// --- complex-join contract: settle both regions -----------------------
	r1, err := ana.Invoke("settle_region", bcrdb.Int(10), bcrdb.Int(9001))
	if err != nil || !r1.Committed {
		log.Fatalf("settle region 10: %v %+v", err, r1)
	}
	r2, err := bo.Invoke("settle_region", bcrdb.Int(20), bcrdb.Int(9002))
	if err != nil || !r2.Committed {
		log.Fatalf("settle region 20: %v %+v", err, r2)
	}
	// One client reads both banks' rows: wait until every node holds the
	// block bo's settlement committed in (ana's node may trail bankB's).
	if err := nw.WaitHeight(int64(r2.Block), 10*time.Second); err != nil {
		log.Fatal(err)
	}
	rows, err := ana.Query(`SELECT region, total, cnt FROM settlements ORDER BY region`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("settlements (join + aggregate inside the contract):")
	for _, r := range rows.Rows {
		fmt.Printf("  region %v: total=%v over %v line items\n", r[0], r[1], r[2])
	}

	// --- complex-group contract: award the best desk ----------------------
	r3, err := ana.Invoke("top_desk", bcrdb.Int(1), bcrdb.Int(9101))
	if err != nil || !r3.Committed {
		log.Fatalf("top_desk: %v %+v", err, r3)
	}
	// Read back through the client that wrote: its node has applied the
	// block, bankB's node may still trail it.
	rows, err = ana.Query(`SELECT desk, total FROM desk_awards WHERE grp = 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("desk award (group-by + order-by + limit): desk %v with pnl %v\n",
		rows.Rows[0][0], rows.Rows[0][1])

	// --- write skew prevented ---------------------------------------------
	// Both banks check the joint reserve (200) and withdraw 150 from
	// different accounts concurrently. Snapshot isolation alone would
	// let both commit, leaving the reserve at -100.
	p1, err := ana.Submit("joint_withdraw", bcrdb.Int(1), bcrdb.Int(2), bcrdb.Int(1), bcrdb.Float(150))
	if err != nil {
		log.Fatal(err)
	}
	p2, err := bo.Submit("joint_withdraw", bcrdb.Int(1), bcrdb.Int(2), bcrdb.Int(2), bcrdb.Float(150))
	if err != nil {
		log.Fatal(err)
	}
	w1, _ := p1.Await(10 * time.Second)
	w2, _ := p2.Await(10 * time.Second)
	fmt.Printf("joint withdrawals: ana committed=%v, bo committed=%v (SSI forbids both)\n",
		w1.Committed, w2.Committed)
	if w1.Committed && w2.Committed {
		log.Fatal("write skew slipped through!")
	}
	if err := nw.WaitHeight(int64(max(w1.Block, w2.Block)), 10*time.Second); err != nil {
		log.Fatal(err)
	}
	rows, err = ana.Query(`SELECT SUM(balance) FROM treasury`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joint reserve after the dust settles: %v (never negative)\n", rows.Rows[0][0])

	// The regulator cross-checks every replica.
	rex := nw.Client("rex")
	if _, err := rex.QueryAll(`SELECT COUNT(*) FROM settlements`); err != nil {
		log.Fatal(err)
	}
	if err := nw.VerifyConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all three organizations agree on every row ✓")
}
