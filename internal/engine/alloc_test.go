package engine

import (
	"fmt"
	"strings"
	"testing"

	"bcrdb/internal/types"
)

// Allocation-regression tests for the execute hot path. The thresholds
// are deliberately above today's measured numbers (≈2× headroom) so
// noise doesn't flake the suite, but a regression that reintroduces
// per-row cloning, per-call statement parsing, per-call plan building
// or intermediate row buffers blows well past them.

// TestSelectHotLoopAllocs covers the cached read path: statement cache
// hit, plan cache hit, indexed point lookup, no row cloning.
func TestSelectHotLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := newHarness(t)
	h.ddl(`CREATE TABLE kv (id BIGINT PRIMARY KEY, k TEXT, v TEXT)`)
	rows := make([]string, 100)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, 'key-%d', 'val-%d')", i, i, i)
	}
	h.exec(`INSERT INTO kv VALUES ` + strings.Join(rows, ", "))

	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block, Params: []types.Value{types.NewInt(50)}}
	query := `SELECT v FROM kv WHERE id = $1`
	// Warm the statement and plan caches.
	if _, err := h.eng.ExecSQL(ctx, query); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(200, func() {
		res, err := h.eng.ExecSQL(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("expected 1 row, got %d", len(res.Rows))
		}
	})
	// Measured 3 allocs/op (result struct, row slice, output row); the
	// range key comes out of a shared chunk. Planning on every call
	// costs ≈25 on top, parsing >100.
	const maxAllocs = 6
	t.Logf("measured %.1f allocs/op", avg)
	if avg > maxAllocs {
		t.Errorf("cached SELECT point lookup: %.1f allocs/op, want ≤ %d", avg, maxAllocs)
	}
}

// TestIndexedScanAllocs covers a cached range scan returning several
// rows: the scan must hand out stored rows without cloning them.
func TestIndexedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := newHarness(t)
	h.ddl(`CREATE TABLE ev (id BIGINT PRIMARY KEY, grp BIGINT, val TEXT)`)
	h.ddl(`CREATE INDEX ev_grp ON ev (grp)`)
	rows := make([]string, 100)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, 'v-%d')", i, i%10, i)
	}
	h.exec(`INSERT INTO ev VALUES ` + strings.Join(rows, ", "))

	ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block, Params: []types.Value{types.NewInt(3)}}
	query := `SELECT id, val FROM ev WHERE grp = $1`
	if _, err := h.eng.ExecSQL(ctx, query); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(200, func() {
		res, err := h.eng.ExecSQL(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("expected 10 rows, got %d", len(res.Rows))
		}
	})
	// Measured 16 allocs/op for 10 result rows (one per output row plus
	// the growth of the row slice). Re-cloning each visited version or
	// buffering hits would add ≥2 allocs per row on top.
	const maxAllocs = 32
	t.Logf("measured %.1f allocs/op", avg)
	if avg > maxAllocs {
		t.Errorf("cached indexed scan: %.1f allocs/op, want ≤ %d", avg, maxAllocs)
	}
}

// TestJoinAggregateAllocs covers the complex-join contract's query in a
// tracked transaction: 10 outer rows, 10 index probes, 50 joined rows
// aggregated. The prepared plan streams them through recycled scratch, so
// what is left is the result and the read-set bookkeeping; the
// materialising executor this replaced took 400.
func TestJoinAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := joinHarness(t)
	joinAggregateTx(t, h, 7) // warm the statement cache and the plan
	region := int64(0)
	avg := testing.AllocsPerRun(200, func() {
		region = (region + 1) % 50
		joinAggregateTx(t, h, region)
	})
	// Measured 5 allocs/op: result, row slice, output row, the params
	// slice of the test itself, and a chunk of probe keys every other call.
	const maxAllocs = 12
	t.Logf("measured %.1f allocs/op", avg)
	if avg > maxAllocs {
		t.Errorf("join + aggregate: %.1f allocs/op, want ≤ %d", avg, maxAllocs)
	}
}
