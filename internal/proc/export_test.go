package proc

import (
	"testing"

	"bcrdb/internal/types"
)

// What the external proc_test package needs of the harness. It exists
// because it can import internal/workload and this package cannot
// (workload → bcrdb → core → proc).

type Harness = procHarness

func NewHarness(t *testing.T) *Harness { return newProcHarness(t) }

func (h *procHarness) SystemExec(sql string) { h.t.Helper(); h.systemExec(sql) }
func (h *procHarness) Deploy(src string)     { h.t.Helper(); h.deploy(src) }

func (h *procHarness) Call(user, name string, args ...types.Value) (types.Value, error) {
	h.t.Helper()
	return h.call(user, name, args...)
}

// OracleWalked is the oracle's count of the statement kinds it executed.
func (h *procHarness) OracleWalked() map[string]int { return h.ref.visited }
