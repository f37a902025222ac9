package proc_test

import (
	"testing"

	"bcrdb/internal/proc"
	"bcrdb/internal/workload"
)

// workloadInvocations is how many generated calls each contract gets.
const workloadInvocations = 40

// TestOracleDifferentialWorkloads runs the four evaluation contracts,
// over their own schemas and seed data and under their own generators,
// through the harness: every invocation executes compiled on one store
// and through the tree-walking oracle on its twin, and return value,
// error text, read rows, read ranges, written versions and the final
// state hash must agree. It is what the networks of core's
// TestDifferentialCompiledVsInterpreted used to compare, per call and in
// milliseconds.
func TestOracleDifferentialWorkloads(t *testing.T) {
	for _, c := range []workload.Contract{
		workload.Simple, workload.ComplexJoin, workload.ComplexGroup, workload.Hotspot,
	} {
		t.Run(c.String(), func(t *testing.T) {
			h := proc.NewHarness(t)
			g := workload.Genesis(c)
			for _, sql := range g.SQL {
				h.SystemExec(sql)
			}
			for _, src := range g.Contracts {
				h.Deploy(src)
			}
			committed := 0
			for seq := int64(1); seq <= workloadInvocations; seq++ {
				name, args := workload.Invocation(c, seq)
				if _, err := h.Call("alice", name, args...); err == nil {
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no invocation committed: the written-version comparison is vacuous")
			}
			// Every one of these contracts ends in a write without INTO.
			if n := h.OracleWalked()["SQLStmt"]; n < committed {
				t.Fatalf("the oracle walked %d plain SQL statements for %d committed invocations", n, committed)
			}
			t.Logf("%d of %d committed; oracle walked %v", committed, workloadInvocations, h.OracleWalked())
		})
	}
}
