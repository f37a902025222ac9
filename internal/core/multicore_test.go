// Differential test for the multicore hot path (docs/adr/0004): the
// signature-prewarm pool and the bounded execute pool must be
// observationally identical to running without them — same per-table
// state, same sys_ledger rows, same commit/abort counts. It reuses the
// determinism recipe of differential_test.go (one org, one user, blocks
// cut strictly by size).
package core_test

import (
	"fmt"
	"testing"

	"bcrdb"
	"bcrdb/internal/workload"
)

// TestDifferentialParallelVsSerialCommit runs every workload contract
// with signature prewarm off and the default execute pool, and with a
// prewarm pool and a small fixed execute pool forced on, on both
// backends, and requires byte-identical outcomes. The Simple contract
// additionally runs under execute-order, whose speculative executions
// exercise the queue's parked-snapshot path. The name predates the
// withdrawal of the parallel commit turn (ADR-0004) and is kept so the
// suite's test ids stay stable; the commit turn is the same serial loop
// on both sides.
func TestDifferentialParallelVsSerialCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness spins up 4 networks per contract")
	}
	poolsOff := func(o *bcrdb.Options) {
		o.VerifyWorkers = -1
	}
	poolsOn := func(o *bcrdb.Options) {
		o.VerifyWorkers = 2
		o.ExecWorkers = 4
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
					for _, backend := range []string{"memory", "disk"} {
						ref := runDifferential(t, c, flow, backend, poolsOff)
						refLabel := fmt.Sprintf("%s/no-prewarm", backend)
						got := runDifferential(t, c, flow, backend, poolsOn)
						compareOutcomes(t, refLabel, ref,
							fmt.Sprintf("%s/prewarm+exec-pool", backend), got)
						if total := diffBlockSize * diffBatches; ref.committed+ref.aborted != total {
							t.Errorf("%s: expected %d results, got %d committed + %d aborted",
								refLabel, total, ref.committed, ref.aborted)
						}
					}
				})
			}
			// The hotspot contract exists to contend: a run without aborts
			// would make the abort-set comparison vacuous.
		})
	}
}
