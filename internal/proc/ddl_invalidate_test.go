package proc

import (
	"fmt"
	"strings"
	"testing"

	"bcrdb/internal/types"
)

// TestCompiledContractInvalidatedByDDL pins the schema-epoch guard on
// the compiled-contract cache and the plan cache together: a contract
// compiled (and its embedded statements planned) before a CREATE INDEX
// must be recompiled and re-planned afterwards. The second invocation
// must return the same answer through the new index — a stale cached
// plan would either miss the index or, worse, scan with wrong bounds.
func TestCompiledContractInvalidatedByDDL(t *testing.T) {
	h := newProcHarness(t)
	h.systemExec(`CREATE TABLE evts (id BIGINT PRIMARY KEY, grp BIGINT, amt BIGINT)`)
	rows := make([]string, 60)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, %d)", i, i%6, i)
	}
	h.systemExec(`INSERT INTO evts VALUES ` + strings.Join(rows, ", "))
	h.deploy(`CREATE FUNCTION grp_total(p_grp BIGINT) RETURNS BIGINT AS $$
DECLARE
	v_total BIGINT;
BEGIN
	SELECT SUM(amt) INTO v_total FROM evts WHERE grp = p_grp;
	RETURN v_total;
END;
$$ LANGUAGE plpgsql;`)

	// First invocation compiles the contract and caches its plans; no
	// secondary index exists yet.
	before, rec, err := h.callWithRec("alice", "grp_total", types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rec.ReadRanges {
		if rr.Table == "evts" && rr.Index == "evts_grp" {
			t.Fatalf("index evts_grp used before it exists")
		}
	}

	// DDL between two invocations of the same contract: bumps the
	// schema epoch, which must invalidate both caches.
	h.systemExec(`CREATE INDEX evts_grp ON evts (grp)`)

	after, rec, err := h.callWithRec("alice", "grp_total", types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("answer changed across DDL: %v vs %v", before, after)
	}
	used := false
	for _, rr := range rec.ReadRanges {
		if rr.Table == "evts" && rr.Index == "evts_grp" {
			used = true
		}
	}
	if !used {
		t.Fatalf("stale compiled plan survived DDL: ranges = %+v", rec.ReadRanges)
	}
}
