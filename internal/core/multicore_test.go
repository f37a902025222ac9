// Differential test for the multicore hot path (docs/adr/0004): the
// execute pool running a block's transactions concurrently, with the
// signature-prewarm pool beside it, must be observationally identical to
// running them one at a time — same per-table state, same sys_ledger rows,
// same commit/abort counts. It reuses the determinism recipe of
// differential_test.go (one org, one user, blocks cut strictly by size).
package core_test

import (
	"testing"

	"bcrdb"
	"bcrdb/internal/workload"
)

// TestDifferentialParallelVsSerialCommit runs every workload contract one
// transaction at a time (Options.SerialExecution, the §5.1 baseline) and
// with the defaults (the execute pool plus prewarm), on both backends,
// and requires byte-identical outcomes. The Simple contract additionally
// runs under execute-order, whose speculative executions exercise the
// queue's parked-snapshot path. The commit turn is the same serial loop
// on both sides (ADR-0004).
func TestDifferentialParallelVsSerialCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness spins up 4 networks per contract")
	}
	serial := func(o *bcrdb.Options) { o.SerialExecution = true }
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
						ref := runDifferential(t, c, flow, backend, serial)
						refLabel := backend + "/serial"
						compareOutcomes(t, refLabel, ref, backend+"/parallel", runDifferential(t, c, flow, backend))
						if total := diffBlockSize * diffBatches; ref.committed+ref.aborted != total {
							t.Errorf("%s: expected %d results, got %d committed + %d aborted",
								refLabel, total, ref.committed, ref.aborted)
						}
					}
				})
			}
		})
	}
}
