// Differential test: every example contract, driven by the workload
// package's own generators, executed on both storage backends. The two
// must be observationally identical: same state hash at the final
// height, same sys_ledger rows, same abort sets. (Contracts have one
// execution path; what holds it to the language's documented behaviour
// is the tree-walking oracle of internal/proc's tests, ADR-0003.)
//
// Determinism recipe: the simulated network delivers per-link FIFO, so
// one org, one user and one submission goroutine give every run the
// identical block composition. Each batch submits exactly BlockSize
// transactions and waits for all their results before the next batch,
// so blocks are cut by size, never by timeout, and execute-order
// snapshots are taken at a quiescent height.
package core_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"bcrdb"
	"bcrdb/internal/workload"
)

const (
	diffBlockSize = 10
	diffBatches   = 3
)

// diffTables lists each workload's user tables. The store's StateHash
// cannot be compared across runs — it covers sys_certs, whose public
// keys are generated fresh per network — so the harness hashes a
// canonical ordered dump of the user tables instead. Within one run,
// VerifyConsistency still compares the full StateHash across nodes.
func diffTables(c workload.Contract) []string {
	switch c {
	case workload.Simple:
		return []string{"kv"}
	case workload.ComplexJoin:
		return []string{"orders", "order_items", "region_totals"}
	case workload.ComplexGroup:
		return []string{"sales", "winners"}
	case workload.Hotspot:
		return []string{"hot_accounts"}
	}
	return nil
}

// diffOutcome is everything observable we compare across variants.
type diffOutcome struct {
	stateHash [32]byte
	// ledger rows keyed by (block, seq) with txid and node-local columns
	// excluded: in order-then-execute the txid is a client-side random
	// nonce and commit_time is the orderer's wall clock, so neither is
	// stable across runs. (block, seq, args, status) still identifies
	// each logical transaction and its fate.
	ledger    []string
	committed int
	aborted   int
}

func flowName(f bcrdb.Flow) string {
	if f == bcrdb.ExecuteOrder {
		return "execute-order"
	}
	return "order-then-execute"
}

// runDifferential drives one network variant through the workload and
// returns its observable outcome. Optional mods tweak the network
// options before it is built (e.g. the worker-pool sizes).
func runDifferential(t *testing.T, c workload.Contract, flow bcrdb.Flow, backend string, mods ...func(*bcrdb.Options)) *diffOutcome {
	t.Helper()
	opts := bcrdb.Options{
		Orgs:         []bcrdb.Org{{Name: "org1", Users: []string{"alice"}}},
		Flow:         flow,
		BlockSize:    diffBlockSize,
		BlockTimeout: 5 * time.Second, // blocks must be cut by size, not time
		Backend:      backend,
		Genesis:      workload.Genesis(c),
	}
	if backend == "disk" {
		opts.DataDir = t.TempDir()
	}
	for _, mod := range mods {
		mod(&opts)
	}
	nw, err := bcrdb.NewNetwork(opts)
	if err != nil {
		t.Fatalf("NewNetwork(%s/%s): %v", backend, flowName(flow), err)
	}
	defer nw.Close()

	node := nw.Node(0)
	results := node.SubscribeAll() // subscribe before submitting anything
	h0 := node.Height()

	out := &diffOutcome{}
	var seq int64
	for b := 0; b < diffBatches; b++ {
		pending := make(map[string]bool, diffBlockSize)
		for i := 0; i < diffBlockSize; i++ {
			seq++
			name, args := workload.Invocation(c, seq)
			id, err := nw.SubmitRaw("alice", name, args)
			if err != nil {
				t.Fatalf("submit seq %d: %v", seq, err)
			}
			pending[id] = true
		}
		deadline := time.After(30 * time.Second)
		for len(pending) > 0 {
			select {
			case r := <-results:
				if !pending[r.ID] {
					continue
				}
				delete(pending, r.ID)
				if r.Committed {
					out.committed++
				} else {
					out.aborted++
				}
			case <-deadline:
				t.Fatalf("batch %d: timed out with %d results outstanding", b, len(pending))
			}
		}
	}

	target := h0 + diffBatches
	waitSealed(t, nw, target)
	if err := nw.VerifyConsistency(); err != nil {
		t.Fatalf("VerifyConsistency: %v", err)
	}

	h := sha256.New()
	for _, table := range diffTables(c) {
		res, err := node.Query(`SELECT * FROM ` + table + ` ORDER BY id`)
		if err != nil {
			t.Fatalf("dump %s: %v", table, err)
		}
		fmt.Fprintf(h, "table %s\n", table)
		for _, row := range res.Rows {
			for _, v := range row {
				h.Write([]byte(v.String()))
				h.Write([]byte{'|'})
			}
			h.Write([]byte{'\n'})
		}
	}
	h.Sum(out.stateHash[:0])
	res, err := node.Query(`SELECT block, seq, username, contract, args, status
		FROM sys_ledger ORDER BY block, seq`)
	if err != nil {
		t.Fatalf("sys_ledger query: %v", err)
	}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out.ledger = append(out.ledger, strings.Join(parts, " | "))
	}
	return out
}

// waitSealed blocks until every node has sealed through height h —
// sys_ledger rows only become visible once the background seal runs.
func waitSealed(t *testing.T, nw *bcrdb.Network, h int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, n := range nw.Nodes() {
			if n.SealedHeight() < h {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for sealed height %d", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func compareOutcomes(t *testing.T, refLabel string, ref *diffOutcome, label string, got *diffOutcome) {
	t.Helper()
	if got.stateHash != ref.stateHash {
		t.Errorf("state hash diverged: %s=%x %s=%x", refLabel, ref.stateHash, label, got.stateHash)
	}
	if got.committed != ref.committed || got.aborted != ref.aborted {
		t.Errorf("outcome counts diverged: %s=%d/%d committed/aborted, %s=%d/%d",
			refLabel, ref.committed, ref.aborted, label, got.committed, got.aborted)
	}
	if len(got.ledger) != len(ref.ledger) {
		t.Fatalf("ledger row count diverged: %s=%d %s=%d",
			refLabel, len(ref.ledger), label, len(got.ledger))
	}
	for i := range ref.ledger {
		if got.ledger[i] != ref.ledger[i] {
			t.Errorf("ledger row %d diverged:\n  %s: %s\n  %s: %s",
				i, refLabel, ref.ledger[i], label, got.ledger[i])
		}
	}
}

// TestDifferentialCompiledVsInterpreted runs every workload contract on
// the memory and the disk backend and requires identical observable
// outcomes. The Simple contract additionally runs under the
// execute-order flow, which exercises the speculative execution path and
// snapshot-based transaction ids. The name predates the interpreter's
// withdrawal as a selectable path (ADR-0003) and is kept, with its
// subtests, so the suite's test ids stay stable: the matrix was backend ×
// execution path (20 networks) and is what is left of it, memory vs disk
// on the compiled path (10). Compiled vs tree walk is compared per call,
// not per network, by internal/proc's harness and
// TestOracleDifferentialWorkloads.
func TestDifferentialCompiledVsInterpreted(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness spins up 2 networks per contract and flow")
	}
	contracts := []workload.Contract{
		workload.Simple, workload.ComplexJoin, workload.ComplexGroup, workload.Hotspot,
	}
	for _, c := range contracts {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			flows := []bcrdb.Flow{bcrdb.OrderThenExecute}
			if c == workload.Simple {
				flows = append(flows, bcrdb.ExecuteOrder)
			}
			for _, flow := range flows {
				flow := flow
				t.Run(flowName(flow), func(t *testing.T) {
					ref := runDifferential(t, c, flow, "memory")
					compareOutcomes(t, "memory", ref, "disk", runDifferential(t, c, flow, "disk"))
					if total := diffBlockSize * diffBatches; ref.committed+ref.aborted != total {
						t.Errorf("expected %d results, got %d committed + %d aborted",
							total, ref.committed, ref.aborted)
					}
					// The hotspot workload exists to contend: if nothing
					// aborts, the abort-set comparison above is vacuous.
					if c == workload.Hotspot && ref.aborted == 0 {
						t.Errorf("hotspot workload produced no aborts; differential abort comparison is vacuous")
					}
				})
			}
		})
	}
}
