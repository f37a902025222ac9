package storage

import (
	"errors"
	"strings"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

func testSchema(name string) Schema {
	return Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Type: types.KindInt},
			{Name: "val", Type: types.KindString},
			{Name: "amt", Type: types.KindFloat},
		},
		PKCols: []int{0},
	}
}

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.CreateTable(testSchema("t")); err != nil {
		t.Fatal(err)
	}
	return s
}

func row(id int64, val string, amt float64) types.Row {
	return types.Row{types.NewInt(id), types.NewString(val), types.NewFloat(amt)}
}

// insertCommitted inserts a row and commits it at the given block.
func insertCommitted(t *testing.T, s Backend, table string, r types.Row, block int64) *RowVersion {
	t.Helper()
	rec := NewTxRecord(s.BeginTx(), s.Height())
	v, err := s.Insert(rec, table, r)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	s.CommitTx(rec, block)
	if block > s.Height() {
		s.SetHeight(block)
		s.MarkDurable(block)
	}
	return v
}

func scanAll(t *testing.T, s Backend, table string, self TxID, height int64, mode ScanMode) []types.Row {
	t.Helper()
	tab, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	err = s.ScanIndex(table, tab.PrimaryIndexName(), index.AllRange(), self, height, mode, func(v *RowVersion) bool {
		out = append(out, v.Data)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCreateDropTable(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreateTable(testSchema("t")); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create err = %v", err)
	}
	if !s.HasTable("t") {
		t.Error("HasTable")
	}
	if err := s.DropTable("t"); err != nil {
		t.Error(err)
	}
	if err := s.DropTable("t"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("double drop err = %v", err)
	}
	if err := s.CreateTable(Schema{Name: "nopk", Columns: []Column{{Name: "a", Type: types.KindInt}}}); err == nil {
		t.Error("table without pk should fail")
	}
}

func TestInsertConstraints(t *testing.T) {
	s := newTestStore(t)
	rec := NewTxRecord(s.BeginTx(), 0)
	if _, err := s.Insert(rec, "t", types.Row{types.NewInt(1)}); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v", err)
	}
	if _, err := s.Insert(rec, "t", types.Row{types.Null(), types.NewString("x"), types.NewFloat(0)}); !errors.Is(err, ErrNotNull) {
		t.Errorf("pk null err = %v", err)
	}
	// Type coercion int -> float for amt.
	if _, err := s.Insert(rec, "t", types.Row{types.NewInt(1), types.NewString("x"), types.NewInt(5)}); err != nil {
		t.Errorf("coercible insert err = %v", err)
	}
	// Bad type.
	if _, err := s.Insert(rec, "t", types.Row{types.NewString("str"), types.NewString("x"), types.NewFloat(0)}); err == nil {
		t.Error("wrong pk type should fail")
	}
	if _, err := s.Insert(rec, "missing", row(1, "a", 0)); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table err = %v", err)
	}
}

func TestOwnWritesVisible(t *testing.T) {
	s := newTestStore(t)
	rec := NewTxRecord(s.BeginTx(), 0)
	if _, err := s.Insert(rec, "t", row(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, s, "t", rec.ID, 0, ScanVisible)
	if len(got) != 1 {
		t.Fatalf("own write invisible: %v", got)
	}
	// Another transaction must not see it.
	other := NewTxRecord(s.BeginTx(), 0)
	if got := scanAll(t, s, "t", other.ID, 0, ScanVisible); len(got) != 0 {
		t.Fatalf("uncommitted write leaked: %v", got)
	}
}

func TestSnapshotByBlockHeight(t *testing.T) {
	s := newTestStore(t)
	insertCommitted(t, s, "t", row(1, "a", 1), 1)
	insertCommitted(t, s, "t", row(2, "b", 2), 2)
	v1 := scanAll(t, s, "t", 0, 1, ScanVisible)
	if len(v1) != 1 || v1[0][0].Int() != 1 {
		t.Fatalf("height-1 snapshot = %v", v1)
	}
	v2 := scanAll(t, s, "t", 0, 2, ScanVisible)
	if len(v2) != 2 {
		t.Fatalf("height-2 snapshot = %v", v2)
	}
	v0 := scanAll(t, s, "t", 0, 0, ScanVisible)
	if len(v0) != 0 {
		t.Fatalf("height-0 snapshot = %v", v0)
	}
}

func TestUpdateKeepsOldVersionForOldSnapshots(t *testing.T) {
	s := newTestStore(t)
	old := insertCommitted(t, s, "t", row(1, "a", 1), 1)

	// Update at block 2: mark-delete old, insert new. The unique check
	// must not count the version this transaction itself supersedes.
	rec2 := NewTxRecord(s.BeginTx(), 1)
	if err := s.MarkDelete(rec2, "t", old.ID); err != nil {
		t.Fatal(err)
	}
	nv, err := s.Insert(rec2, "t", row(1, "a2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(rec2, 2); err != nil {
		t.Fatalf("update validate: %v", err)
	}
	s.CommitTx(rec2, 2)
	s.SetHeight(2)

	at1 := scanAll(t, s, "t", 0, 1, ScanVisible)
	if len(at1) != 1 || at1[0][1].Str() != "a" {
		t.Fatalf("height-1 sees %v", at1)
	}
	at2 := scanAll(t, s, "t", 0, 2, ScanVisible)
	if len(at2) != 1 || at2[0][1].Str() != "a2" {
		t.Fatalf("height-2 sees %v", at2)
	}
	// Provenance sees both versions.
	prov := scanAll(t, s, "t", 0, 2, ScanProvenance)
	if len(prov) != 2 {
		t.Fatalf("provenance sees %v", prov)
	}
	// Block stamps set.
	if old.DeleterBlk != 2 || nv.CreatorBlk != 2 {
		t.Errorf("stamps: deleter=%d creator=%d", old.DeleterBlk, nv.CreatorBlk)
	}
}

func TestAbortDiscardsProvisionalVersions(t *testing.T) {
	s := newTestStore(t)
	rec := NewTxRecord(s.BeginTx(), 0)
	if _, err := s.Insert(rec, "t", row(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	s.AbortTx(rec)
	if got := scanAll(t, s, "t", rec.ID, 10, ScanVisible); len(got) != 0 {
		t.Fatalf("aborted insert visible: %v", got)
	}
	n, _ := s.CountVisible("t", 10)
	if n != 0 {
		t.Errorf("CountVisible = %d", n)
	}
}

func TestInsertDeleteSameTxNeverVisible(t *testing.T) {
	s := newTestStore(t)
	rec := NewTxRecord(s.BeginTx(), 0)
	v, err := s.Insert(rec, "t", row(1, "a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkDelete(rec, "t", v.ID); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, s, "t", rec.ID, 0, ScanVisible); len(got) != 0 {
		t.Fatalf("self-deleted insert visible to self: %v", got)
	}
	s.CommitTx(rec, 1)
	s.SetHeight(1)
	if got := scanAll(t, s, "t", 0, 1, ScanVisible); len(got) != 0 {
		t.Fatalf("self-deleted insert visible after commit: %v", got)
	}
}

func TestUniqueViolationAgainstSnapshot(t *testing.T) {
	s := newTestStore(t)
	insertCommitted(t, s, "t", row(1, "a", 1), 1)
	rec := NewTxRecord(s.BeginTx(), 1)
	if _, err := s.Insert(rec, "t", row(1, "dup", 0)); !errors.Is(err, ErrUniqueViolation) {
		t.Errorf("unique err = %v", err)
	}
	// At an older snapshot the row does not exist, insert succeeds
	// immediately (conflict surfaces at Validate).
	rec0 := NewTxRecord(s.BeginTx(), 0)
	if _, err := s.Insert(rec0, "t", row(1, "dup", 0)); err != nil {
		t.Errorf("snapshot-0 insert err = %v", err)
	}
	if err := s.Validate(rec0, 2); err == nil {
		t.Error("Validate should catch committed duplicate")
	} else if ve := err.(*ValidationError); ve.Kind != "unique" {
		t.Errorf("kind = %s", ve.Kind)
	}
}

func TestValidateWWConflict(t *testing.T) {
	s := newTestStore(t)
	old := insertCommitted(t, s, "t", row(1, "a", 1), 1)

	// Two transactions both supersede the same version.
	r1 := NewTxRecord(s.BeginTx(), 1)
	r2 := NewTxRecord(s.BeginTx(), 1)
	if err := s.MarkDelete(r1, "t", old.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkDelete(r2, "t", old.ID); err != nil {
		t.Fatal(err)
	}
	// First committer wins.
	if err := s.Validate(r1, 2); err != nil {
		t.Fatalf("r1 validate: %v", err)
	}
	s.CommitTx(r1, 2)
	err := s.Validate(r2, 2)
	if err == nil {
		t.Fatal("r2 should fail ww validation")
	}
	if ve := err.(*ValidationError); ve.Kind != "ww-conflict" {
		t.Errorf("kind = %s", ve.Kind)
	}
}

func TestValidateStaleRead(t *testing.T) {
	s := newTestStore(t)
	old := insertCommitted(t, s, "t", row(1, "a", 1), 1)

	// Reader at snapshot 1 reads the row.
	reader := NewTxRecord(s.BeginTx(), 1)
	reader.NoteRead("t", old.ID)

	// A writer supersedes it in block 2.
	w := NewTxRecord(s.BeginTx(), 1)
	if err := s.MarkDelete(w, "t", old.ID); err != nil {
		t.Fatal(err)
	}
	s.CommitTx(w, 2)
	s.SetHeight(2)

	// Reader committing in block 3 must abort (deleter block 2 ∈ (1,3)).
	err := s.Validate(reader, 3)
	if err == nil {
		t.Fatal("stale read not detected")
	}
	if ve := err.(*ValidationError); ve.Kind != "stale-read" {
		t.Errorf("kind = %s", ve.Kind)
	}

	// A reader committing in the same block as the writer is fine
	// (within-block rw conflicts are the SSI layer's business).
	reader2 := NewTxRecord(s.BeginTx(), 1)
	reader2.NoteRead("t", old.ID)
	if err := s.Validate(reader2, 2); err != nil {
		t.Errorf("same-block read flagged stale: %v", err)
	}
}

func TestValidatePhantom(t *testing.T) {
	s := newTestStore(t)
	tab, _ := s.Table("t")
	pk := tab.PrimaryIndexName()

	// Reader scans range [0, 100] at snapshot 0.
	reader := NewTxRecord(s.BeginTx(), 0)
	reader.NoteRange("t", pk, index.Range{
		Lo: types.Key{types.NewInt(0)}, Hi: types.Key{types.NewInt(100)},
		LoInc: true, HiInc: true,
	})

	// Block 1 inserts id=50 (inside range).
	insertCommitted(t, s, "t", row(50, "x", 0), 1)

	err := s.Validate(reader, 2)
	if err == nil {
		t.Fatal("phantom not detected")
	}
	if ve := err.(*ValidationError); ve.Kind != "phantom" {
		t.Errorf("kind = %s", ve.Kind)
	}

	// Outside the range: fine.
	reader2 := NewTxRecord(s.BeginTx(), 0)
	reader2.NoteRange("t", pk, index.Range{
		Lo: types.Key{types.NewInt(200)}, Hi: types.Key{types.NewInt(300)},
		LoInc: true, HiInc: true,
	})
	if err := s.Validate(reader2, 2); err != nil {
		t.Errorf("out-of-range insert flagged: %v", err)
	}

	// Paper rule: no abort when the phantom row was deleted again
	// before the current block.
	v := insertCommitted(t, s, "t", row(60, "y", 0), 2)
	del := NewTxRecord(s.BeginTx(), 2)
	if err := s.MarkDelete(del, "t", v.ID); err != nil {
		t.Fatal(err)
	}
	s.CommitTx(del, 3)
	s.SetHeight(3)
	reader3 := NewTxRecord(s.BeginTx(), 1)
	reader3.NoteRange("t", pk, index.Range{
		Lo: types.Key{types.NewInt(55)}, Hi: types.Key{types.NewInt(70)},
		LoInc: true, HiInc: true,
	})
	if err := s.Validate(reader3, 4); err != nil {
		t.Errorf("deleted-again phantom flagged: %v", err)
	}
}

func TestSecondaryIndexAndBackfill(t *testing.T) {
	s := newTestStore(t)
	insertCommitted(t, s, "t", row(1, "bb", 5), 1)
	insertCommitted(t, s, "t", row(2, "aa", 7), 1)
	if err := s.CreateIndex("t", "t_val", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("t", "t_val", []int{1}, false); !errors.Is(err, ErrIndexExists) {
		t.Errorf("dup index err = %v", err)
	}
	var got []string
	err := s.ScanIndex("t", "t_val", index.AllRange(), 0, 1, ScanVisible, func(v *RowVersion) bool {
		got = append(got, v.Data[1].Str())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "aa" || got[1] != "bb" {
		t.Errorf("index order = %v", got)
	}
	tab, _ := s.Table("t")
	if got := tab.Indexes(); len(got) != 2 {
		t.Errorf("Indexes = %v", got)
	}
}

func TestStateHashDeterministicAndHeightSensitive(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		_ = s.CreateTable(testSchema("t"))
		_ = s.CreateTable(testSchema("u"))
		insertCommitted(nil2(t), s, "t", row(2, "b", 2), 1)
		insertCommitted(nil2(t), s, "t", row(1, "a", 1), 1)
		insertCommitted(nil2(t), s, "u", row(9, "z", 9), 2)
		return s
	}
	s1, s2 := build(), build()
	if s1.StateHash(2) != s2.StateHash(2) {
		t.Error("same logical state, different hashes")
	}
	if s1.StateHash(1) == s1.StateHash(2) {
		t.Error("different heights should hash differently")
	}
	// Local xid differences must not affect the hash: burn some ids.
	s3 := NewStore()
	_ = s3.CreateTable(testSchema("t"))
	_ = s3.CreateTable(testSchema("u"))
	for i := 0; i < 7; i++ {
		s3.BeginTx()
	}
	insertCommitted(nil2(t), s3, "t", row(1, "a", 1), 1)
	insertCommitted(nil2(t), s3, "t", row(2, "b", 2), 1)
	insertCommitted(nil2(t), s3, "u", row(9, "z", 9), 2)
	if s1.StateHash(2) != s3.StateHash(2) {
		t.Error("xid allocation leaked into state hash")
	}
}

// nil2 lets insertCommitted take a *testing.T where we have one.
func nil2(t *testing.T) *testing.T { return t }

func TestScanEarlyStopAndMissingIndex(t *testing.T) {
	s := newTestStore(t)
	for i := int64(0); i < 10; i++ {
		insertCommitted(t, s, "t", row(i, "v", 0), 1)
	}
	n := 0
	err := s.ScanIndex("t", "t_pkey", index.AllRange(), 0, 1, ScanVisible, func(v *RowVersion) bool {
		n++
		return n < 3
	})
	if err != nil || n != 3 {
		t.Errorf("early stop n=%d err=%v", n, err)
	}
	if err := s.ScanIndex("t", "nope", index.AllRange(), 0, 1, ScanVisible, nil); !errors.Is(err, ErrNoSuchIndex) {
		t.Errorf("missing index err = %v", err)
	}
	if err := s.ScanIndex("missing", "x", index.AllRange(), 0, 1, ScanVisible, nil); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table err = %v", err)
	}
}

func TestIsCommitted(t *testing.T) {
	s := newTestStore(t)
	rec := NewTxRecord(s.BeginTx(), 0)
	if ok, _ := s.IsCommitted(rec.ID); ok {
		t.Error("in-progress tx reported committed")
	}
	s.CommitTx(rec, 5)
	ok, blk := s.IsCommitted(rec.ID)
	if !ok || blk != 5 {
		t.Errorf("IsCommitted = %v %d", ok, blk)
	}
}

func TestValidationErrorMessage(t *testing.T) {
	e := &ValidationError{Kind: "phantom", Table: "t", Detail: "x"}
	if !strings.Contains(e.Error(), "phantom") || !strings.Contains(e.Error(), "t") {
		t.Errorf("message = %q", e.Error())
	}
}
