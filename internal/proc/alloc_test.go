package proc

import (
	"testing"

	"bcrdb/internal/engine"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// TestSimpleContractAllocs pins the allocation cost of one simple-
// contract transaction: contract-source lookup, compiled-closure cache
// hit, frame allocation, one INSERT. A regression that reintroduces
// per-call parsing, per-call compilation, or by-name variable maps blows
// well past the threshold. (The measured run calls the interpreter
// directly: the harness's oracle comparison is not part of it.)
func TestSimpleContractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE kv (id BIGINT PRIMARY KEY, k TEXT, v TEXT)`)
	h.deploy(`CREATE FUNCTION simple_insert(p_id BIGINT, p_k TEXT, p_v TEXT) RETURNS VOID AS $$
BEGIN
	INSERT INTO kv VALUES (p_id, p_k, p_v);
END;
$$ LANGUAGE plpgsql;`)

	// One committed warm-up call populates the interpreter's compiled
	// cache and the engine's statement and plan caches.
	h.mustCall("alice", "simple_insert",
		types.NewInt(1), types.NewString("k"), types.NewString("v"))

	// Each measured run executes a full transaction and aborts it, so
	// the store's version count — and with it the work per run — stays
	// constant across iterations.
	id := int64(1000)
	args := []types.Value{types.NewInt(0), types.NewString("key"), types.NewString("val")}
	oneTx := func() {
		id++
		args[0] = types.NewInt(id)
		rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
		ctx := &engine.ExecCtx{Mode: engine.ModeContract, Height: h.block, Rec: rec, User: "alice"}
		if _, err := h.in.Call(ctx, "simple_insert", args); err != nil {
			t.Fatal(err)
		}
		h.st.AbortTx(rec)
	}
	avg := testing.AllocsPerRun(200, oneTx)
	t.Logf("%.1f allocs/op", avg)

	// Measured 23 allocs/op (tx record, frame, the prepared
	// contract-source lookup, insert path); per-call parsing would be an
	// order of magnitude more.
	const maxAllocs = 55
	if avg > maxAllocs {
		t.Errorf("simple contract tx: %.1f allocs/op, want ≤ %d", avg, maxAllocs)
	}
}
