package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

// rangesFor runs sql in a fresh transaction and returns the recorded
// index ranges (aborting the transaction afterwards).
func rangesFor(t *testing.T, h *harness, sql string, params ...types.Value) []storage.RangeRef {
	t.Helper()
	rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
	ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec, Params: params}
	if _, err := h.eng.ExecSQL(ctx, sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	h.st.AbortTx(rec)
	return rec.ReadRanges
}

func usesIndex(ranges []storage.RangeRef, table, index string) bool {
	for _, rr := range ranges {
		if rr.Table == table && rr.Index == index {
			return true
		}
	}
	return false
}

// TestPlanCacheInvalidatedByDDL pins the schema-epoch guard: a plan
// cached for a statement must be re-planned after DDL changes the
// catalog. The same statement text (and therefore, via the statement
// cache, the same AST and the same plan-cache key) runs once before and
// once after CREATE INDEX; the second run must use the new index.
func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE pt (id BIGINT PRIMARY KEY, grp BIGINT, v TEXT)`)
	rows := make([]string, 60)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, 'v-%d')", i, i%6, i)
	}
	h.exec(`INSERT INTO pt VALUES ` + strings.Join(rows, ", "))

	query := `SELECT v FROM pt WHERE grp = $1`
	arg := types.NewInt(3)

	// Warm the plan cache: without an index on grp this scans the
	// primary index.
	before := rangesFor(t, h, query, arg)
	if usesIndex(before, "pt", "pt_grp") {
		t.Fatalf("index pt_grp used before it exists: %+v", before)
	}
	// Run again so the cached plan is known-hot.
	rangesFor(t, h, query, arg)

	h.ddl(`CREATE INDEX pt_grp ON pt (grp)`)

	after := rangesFor(t, h, query, arg)
	if !usesIndex(after, "pt", "pt_grp") {
		t.Fatalf("cached plan survived DDL: ranges after CREATE INDEX = %+v", after)
	}
}

// TestPlanCacheBoundsShapeGuard pins the second cache guard: a cached
// indexed plan only applies while the parameter shape still yields the
// same bounds. A NULL parameter removes the equality bound; the scan
// must fall back rather than reuse the bounded range.
func TestPlanCacheBoundsShapeGuard(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE st (id BIGINT PRIMARY KEY, grp BIGINT, v TEXT)`)
	h.ddl(`CREATE INDEX st_grp ON st (grp)`)
	h.exec(`INSERT INTO st VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 20, 'c')`)

	query := `SELECT v FROM st WHERE grp = $1`
	got := h.exec(query, types.NewInt(20))
	if len(got.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(got.Rows))
	}
	// Same statement, NULL parameter: grp = NULL matches nothing, and
	// the cached (indexed, one-bound) plan must not be misapplied.
	got = h.exec(query, types.Null())
	if len(got.Rows) != 0 {
		t.Fatalf("NULL-parameter query returned %d rows, want 0", len(got.Rows))
	}
	// And the original shape still works afterwards.
	got = h.exec(query, types.NewInt(10))
	if len(got.Rows) != 1 {
		t.Fatalf("expected 1 row after shape flip, got %d", len(got.Rows))
	}
}

// TestStatementCacheKeepsCachingWhenFull pins the rotation: a stream of
// one-off statement texts larger than the cache must not stop later
// statements from being cached. (The cache used to freeze once it held
// maxStmtCache entries: everything first seen after that — a contract
// deployed later, say — was parsed and planned on every call, forever.)
func TestStatementCacheKeepsCachingWhenFull(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE fc (id BIGINT PRIMARY KEY, v TEXT)`)
	h.exec(`INSERT INTO fc VALUES (1, 'a'), (2, 'b')`)
	hot := `SELECT v FROM fc WHERE id = $1`
	h.query(hot, types.NewInt(1))
	for i := 0; i < maxStmtCache+maxStmtCache/4; i++ {
		h.query(fmt.Sprintf(`SELECT v FROM fc WHERE id = %d`, i))
		if i%100 == 0 {
			h.query(hot, types.NewInt(1)) // a statement in use survives the rotations
		}
	}
	hits, misses := h.eng.PlanCacheStats()
	h.query(hot, types.NewInt(2))
	if h2, m2 := h.eng.PlanCacheStats(); h2 != hits+1 || m2 != misses {
		t.Errorf("statement in steady use fell out of the cache: hits %d→%d, misses %d→%d", hits, h2, misses, m2)
	}
	fresh := `SELECT id FROM fc WHERE v = $1`
	h.query(fresh, types.NewString("a"))
	hits, misses = h.eng.PlanCacheStats()
	h.query(fresh, types.NewString("b"))
	if h2, m2 := h.eng.PlanCacheStats(); h2 != hits+1 || m2 != misses {
		t.Errorf("statement first seen after %d one-off texts is not cached: hits %d→%d, misses %d→%d",
			maxStmtCache+maxStmtCache/4, hits, h2, misses, m2)
	}
	if n := len(h.eng.stmts.young) + len(h.eng.stmts.old); n > maxStmtCache {
		t.Errorf("statement cache holds %d entries, bound is %d", n, maxStmtCache)
	}
}

// TestPreparedPlansSharedAcrossGoroutines runs what a node's exec workers,
// sealer and query handlers do to the caches at once: the same cached
// statements from many goroutines (so they contend for one plan's scratch
// slots and access-path list), flipping between bounds shapes, while
// one-off texts rotate the statement cache and DDL moves the schema epoch
// under everybody. Every execution must still return the right answer;
// with -race this audits the sharing.
func TestPreparedPlansSharedAcrossGoroutines(t *testing.T) {
	h := joinHarness(t)
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Errorf(format, args...):
		default:
		}
	}
	const rounds = 150
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := storage.NewTxRecord(h.st.BeginTx(), h.block)
				ctx := &ExecCtx{Mode: ModeContract, Height: h.block, Rec: rec,
					Params: []types.Value{types.NewInt(int64((w + r) % 50))}}
				want := int64(50)
				if r%5 == 0 { // another bounds shape: no bound, nothing matches
					ctx.Params, want = []types.Value{types.Null()}, 0
				}
				res, err := h.eng.ExecSQL(ctx, joinAggregateSQL)
				if err != nil || res.Rows[0][1].Int() != want {
					report("join aggregate: %v, %v", res, err)
				}
				res, err = h.eng.ExecSQL(ctx, `UPDATE order_items SET qty = qty + 1 WHERE order_id = $1`)
				if err != nil || int64(res.Affected) != want/10 {
					report("update: %v, %v", res, err)
				}
				h.st.AbortTx(rec)
			}
		}(w)
	}
	wg.Add(1)
	go func() { // one-off texts: rotate the statement cache
		defer wg.Done()
		ctx := &ExecCtx{Mode: ModeReadOnly, Height: h.block}
		for i := 0; i < maxStmtCache+500; i++ {
			res, err := h.eng.ExecSQL(ctx, fmt.Sprintf(`SELECT region FROM orders WHERE id = %d`, i%500))
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i%50) {
				report("ad-hoc select %d: %v, %v", i, res, err)
			}
		}
	}()
	wg.Add(1)
	go func() { // DDL: every cached plan goes stale, again and again
		defer wg.Done()
		for i := 0; i < 40; i++ {
			ctx := &ExecCtx{Mode: ModeSystem, Height: h.block, Rec: storage.NewTxRecord(h.st.BeginTx(), h.block)}
			if _, err := h.eng.ExecSQL(ctx, fmt.Sprintf(`CREATE TABLE side%d (id BIGINT PRIMARY KEY)`, i)); err != nil {
				report("ddl: %v", err)
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}
