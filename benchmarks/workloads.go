package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"bcrdb"
)

// The four workloads are the measuring stick later changes are judged
// with, so everything that defines them — contracts, seed data, op
// generators — lives in this file and nowhere else: an edit to
// internal/workload (the paper-figure reproducer) must not be able to
// move it.

// Shape shared by every workload (see README.md, "Shape of one run").
const (
	blockSize    = 100
	maxInFlight  = 256 // closed-loop (saturation) concurrency
	benchUser    = "u1"
	benchUserOrg = "org1"
	idSecret     = "bcrdb-benchmarks" // Options.IdentitySecret, so the served workload can sign
)

// Seed-data sizes. The datasets are the same for every -seed (so runs
// compare); only the op sequence depends on the seed.
const (
	joinRegions         = 50
	joinOrdersPerRegion = 10
	joinItemsPerOrder   = 5
	transferAccounts    = 1024
	transferBalance     = 1_000_000.0
	transferQueryEvery  = 5  // every 5th op of the mixed workload is a read-only query
	rangeRows           = 20 // rows covered by one range-aggregate query
	datasetSeed         = 20190131
	firstRunID          = 1_000_000 // ids below are seed data / set-up ops
)

type opKind uint8

const (
	opTx opKind = iota
	opQuery
)

// op is one generated operation: a contract invocation or a read-only
// query. wantRows is the row count a query must return; wantCount, when
// positive, is the value its last column must hold.
type op struct {
	kind      opKind
	contract  string
	args      []bcrdb.Value
	sql       string
	wantRows  int
	wantCount int64
}

type workload struct {
	name    string
	why     string
	flow    bcrdb.Flow
	backend string  // "memory" or "disk"
	served  bool    // submit over HTTP to Network.Serve(0) instead of in-process
	rate    float64 // paced ops per second (transactions + queries)
	// queryEvery > 0 makes every queryEvery-th op a read-only query.
	queryEvery int
	table      string // the contract's main table
	genesis    func() bcrdb.Genesis
	// gen builds op i from the run's rng. It is called by one goroutine,
	// in order, so the sequence is a pure function of (seed, workload).
	gen func(rng *rand.Rand, i int64) op
	// statements are the SQL texts the workload makes the node parse
	// (contract bodies and queries); the sqlparser probe replays them.
	statements []string
	pointSQL   string // engine probe: point lookup on table, $1 = id
	rangeSQL   string // engine probe: rangeRows-row aggregate, $1 ≤ id < $2
	probeLo    int64  // first id of seed rows the engine probes may address
}

var workloads = []*workload{
	{
		name: "simple-oe-mem",
		why:  "one-row insert, order-then-execute, memory: sign, ordering, verify and pipeline are the whole cost; engine work must not show here",
		flow: bcrdb.OrderThenExecute, backend: "memory", rate: 3000,
		table: "kv", genesis: simpleGenesis, gen: simpleOp,
		statements: []string{`INSERT INTO kv VALUES (p_id, p_k, p_v)`},
		pointSQL:   `SELECT v FROM kv WHERE id = $1`,
		rangeSQL:   `SELECT COUNT(*) FROM kv WHERE id >= $1 AND id < $2`,
		probeLo:    firstRunID,
	},
	{
		name: "join-eo-mem",
		why:  "indexed join + aggregate + insert, execute-order, memory: engine, index and storage reads dominate; signature work must not show here",
		flow: bcrdb.ExecuteOrder, backend: "memory", rate: 1200,
		table: "region_totals", genesis: joinGenesis, gen: joinOp,
		statements: []string{
			`SELECT SUM(oi.qty * oi.price), COUNT(*) FROM orders o JOIN order_items oi ON oi.order_id = o.id WHERE o.region = p_region`,
			`INSERT INTO region_totals VALUES (p_out, p_region, COALESCE(v_total, 0.0), v_cnt)`,
		},
		pointSQL: `SELECT region FROM orders WHERE id = $1`,
		rangeSQL: `SELECT SUM(qty * price), COUNT(*) FROM order_items WHERE id >= $1 AND id < $2`,
	},
	{
		name: "simple-oe-served",
		why:  "the simple contract on the disk backend, submitted over HTTP by one serial client: wal, fsync and transport work here and nowhere else",
		flow: bcrdb.OrderThenExecute, backend: "disk", served: true, rate: 1500,
		table: "kv", genesis: simpleGenesis, gen: simpleOp,
		statements: []string{`INSERT INTO kv VALUES (p_id, p_k, p_v)`},
		pointSQL:   `SELECT v FROM kv WHERE id = $1`,
		rangeSQL:   `SELECT COUNT(*) FROM kv WHERE id >= $1 AND id < $2`,
		probeLo:    firstRunID,
	},
	{
		name: "transfer-eo-mixed",
		why:  "read-modify-write transfers over 1024 accounts plus 1 read-only query per 4 transfers, execute-order: ssi aborts, superseded versions, reads beside writes",
		flow: bcrdb.ExecuteOrder, backend: "memory", rate: 1500, queryEvery: transferQueryEvery,
		table: "accounts", genesis: transferGenesis, gen: transferOp,
		statements: []string{
			`SELECT balance FROM accounts WHERE id = p_from`,
			`UPDATE accounts SET balance = balance - p_amt WHERE id = p_from`,
			`UPDATE accounts SET balance = balance + p_amt WHERE id = p_to`,
			transferPointSQL, transferRangeSQL,
		},
		pointSQL: transferPointSQL,
		rangeSQL: transferRangeSQL,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newRng seeds the op stream from (seed, workload).
func (w *workload) newRng(seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()&math.MaxInt64)))
}

// --- simple: one-row insert ----------------------------------------------------

func simpleGenesis() bcrdb.Genesis {
	return bcrdb.Genesis{
		SQL: []string{`CREATE TABLE kv (id BIGINT PRIMARY KEY, k TEXT, v TEXT)`},
		Contracts: []string{`
CREATE FUNCTION simple_insert(p_id BIGINT, p_k TEXT, p_v TEXT) RETURNS VOID AS $$
BEGIN
	INSERT INTO kv VALUES (p_id, p_k, p_v);
END;
$$ LANGUAGE plpgsql;`},
	}
}

func simpleOp(rng *rand.Rand, i int64) op {
	return op{kind: opTx, contract: "simple_insert", args: []bcrdb.Value{
		bcrdb.Int(firstRunID + i),
		bcrdb.Text(fmt.Sprintf("key-%08x", rng.Uint32())),
		bcrdb.Text(fmt.Sprintf("val-%016x%016x", rng.Uint64(), rng.Uint64())),
	}}
}

// --- join: indexed join + aggregate + insert -----------------------------------

// joinItem is one seeded order_items row.
type joinItem struct {
	region int
	qty    int64
	price  float64
}

func joinItems() []joinItem {
	rng := rand.New(rand.NewSource(datasetSeed))
	var items []joinItem
	for r := 0; r < joinRegions; r++ {
		for o := 0; o < joinOrdersPerRegion; o++ {
			for k := 0; k < joinItemsPerOrder; k++ {
				items = append(items, joinItem{
					region: r,
					qty:    int64(rng.Intn(9) + 1),
					price:  float64(rng.Intn(10000)) / 100,
				})
			}
		}
	}
	return items
}

// joinTotals is the per-region aggregate the contract must compute.
func joinTotals() (total []float64, cnt []int64) {
	total = make([]float64, joinRegions)
	cnt = make([]int64, joinRegions)
	for _, it := range joinItems() {
		total[it.region] += float64(it.qty) * it.price
		cnt[it.region]++
	}
	return total, cnt
}

func joinGenesis() bcrdb.Genesis {
	var orders, items []string
	for id, it := range joinItems() {
		oid := id / joinItemsPerOrder
		if id%joinItemsPerOrder == 0 {
			orders = append(orders, fmt.Sprintf("(%d, %d, %d, 'open')", oid, it.region, oid%997))
		}
		items = append(items, fmt.Sprintf("(%d, %d, %d, %.2f)", id, oid, it.qty, it.price))
	}
	return bcrdb.Genesis{
		SQL: []string{
			`CREATE TABLE orders (id BIGINT PRIMARY KEY, region BIGINT NOT NULL, customer BIGINT, status TEXT)`,
			`CREATE INDEX orders_region ON orders (region)`,
			`CREATE TABLE order_items (id BIGINT PRIMARY KEY, order_id BIGINT NOT NULL, qty BIGINT, price DOUBLE)`,
			`CREATE INDEX order_items_order ON order_items (order_id)`,
			`CREATE TABLE region_totals (id BIGINT PRIMARY KEY, region BIGINT, total DOUBLE, cnt BIGINT)`,
			"INSERT INTO orders VALUES " + strings.Join(orders, ", "),
			"INSERT INTO order_items VALUES " + strings.Join(items, ", "),
		},
		Contracts: []string{`
CREATE FUNCTION complex_join(p_region BIGINT, p_out BIGINT) RETURNS VOID AS $$
DECLARE
	v_total DOUBLE;
	v_cnt BIGINT;
BEGIN
	SELECT SUM(oi.qty * oi.price), COUNT(*) INTO v_total, v_cnt
	FROM orders o JOIN order_items oi ON oi.order_id = o.id
	WHERE o.region = p_region;
	INSERT INTO region_totals VALUES (p_out, p_region, COALESCE(v_total, 0.0), v_cnt);
END;
$$ LANGUAGE plpgsql;`},
	}
}

func joinOp(rng *rand.Rand, i int64) op {
	return op{kind: opTx, contract: "complex_join", args: []bcrdb.Value{
		bcrdb.Int(int64(rng.Intn(joinRegions))),
		bcrdb.Int(firstRunID + i),
	}}
}

// --- transfer: read-modify-write plus read-only queries -------------------------

const (
	transferPointSQL = `SELECT balance FROM accounts WHERE id = $1`
	transferRangeSQL = `SELECT SUM(balance), COUNT(*) FROM accounts WHERE id >= $1 AND id < $2`
)

func transferGenesis() bcrdb.Genesis {
	rows := make([]string, transferAccounts)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %.1f)", i, transferBalance)
	}
	return bcrdb.Genesis{
		SQL: []string{
			`CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance DOUBLE NOT NULL)`,
			"INSERT INTO accounts VALUES " + strings.Join(rows, ", "),
		},
		// The nonce is unused by the body; it keeps the §3.4.3 id
		// hash(user, contract, args, snapshot) unique per invocation.
		Contracts: []string{`
CREATE FUNCTION transfer(p_from BIGINT, p_to BIGINT, p_amt DOUBLE, p_nonce BIGINT) RETURNS VOID AS $$
DECLARE
	bal DOUBLE;
BEGIN
	SELECT balance INTO bal FROM accounts WHERE id = p_from;
	IF bal < p_amt THEN
		RAISE EXCEPTION 'insufficient';
	END IF;
	UPDATE accounts SET balance = balance - p_amt WHERE id = p_from;
	UPDATE accounts SET balance = balance + p_amt WHERE id = p_to;
END;
$$ LANGUAGE plpgsql;`},
	}
}

func transferOp(rng *rand.Rand, i int64) op {
	if i%transferQueryEvery == transferQueryEvery-1 {
		if rng.Intn(2) == 0 {
			return op{kind: opQuery, sql: transferPointSQL, wantRows: 1,
				args: []bcrdb.Value{bcrdb.Int(int64(rng.Intn(transferAccounts)))}}
		}
		lo := int64(rng.Intn(transferAccounts - rangeRows))
		return op{kind: opQuery, sql: transferRangeSQL, wantRows: 1, wantCount: rangeRows,
			args: []bcrdb.Value{bcrdb.Int(lo), bcrdb.Int(lo + rangeRows)}}
	}
	from := rng.Intn(transferAccounts)
	to := (from + 1 + rng.Intn(transferAccounts-1)) % transferAccounts
	return op{kind: opTx, contract: "transfer", args: []bcrdb.Value{
		bcrdb.Int(int64(from)), bcrdb.Int(int64(to)),
		bcrdb.Float(float64(rng.Intn(5) + 1)), bcrdb.Int(firstRunID + i),
	}}
}
