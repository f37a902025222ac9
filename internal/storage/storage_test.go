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

func TestValidationErrorMessage(t *testing.T) {
	e := &ValidationError{Kind: "phantom", Table: "t", Detail: "x"}
	if !strings.Contains(e.Error(), "phantom") || !strings.Contains(e.Error(), "t") {
		t.Errorf("message = %q", e.Error())
	}
}

// TestCreateUniqueIndexRefusesCollisions: CREATE UNIQUE INDEX is refused
// when two committed versions share a key and are both visible at some
// height — now, or only in the history a past-height read still reaches —
// and the refusal leaves the catalog and the schema epoch as they were.
// Versions whose lifetimes do not overlap share a key freely, and a
// provisional duplicate is left to its transaction's commit turn.
func TestCreateUniqueIndexRefusesCollisions(t *testing.T) {
	// commit runs one transaction in its own block: it supersedes the
	// versions del and inserts rows.
	commit := func(s Backend, block int64, del []*RowVersion, rows ...types.Row) []*RowVersion {
		rec := NewTxRecord(s.BeginTx(), block-1)
		for _, v := range del {
			if err := s.MarkDelete(rec, "t", v.ID); err != nil {
				t.Fatal(err)
			}
		}
		var out []*RowVersion
		for _, r := range rows {
			v, err := s.Insert(rec, "t", r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		s.CommitTx(rec, block)
		setHeightDurable(s, block)
		return out
	}
	for _, tc := range []struct {
		name    string
		history func(s Backend) *TxRecord // returns a transaction left in flight, or nil
		cols    []int
		ok      bool
	}{
		{"live collision", func(s Backend) *TxRecord {
			commit(s, 1, nil, row(1, "a", 0), row(2, "a", 1))
			return nil
		}, []int{1}, false},
		{"collision in history only", func(s Backend) *TxRecord {
			one := commit(s, 1, nil, row(1, "a", 0))
			two := commit(s, 2, nil, row(2, "a", 0))
			commit(s, 3, append(one, two...), row(1, "b", 0))
			return nil
		}, []int{1}, false},
		{"composite collision", func(s Backend) *TxRecord {
			commit(s, 1, nil, row(1, "a", 7), row(2, "a", 7), row(3, "a", 8))
			return nil
		}, []int{1, 2}, false},
		{"disjoint lifetimes", func(s Backend) *TxRecord {
			one := commit(s, 1, nil, row(1, "a", 0))
			commit(s, 2, one, row(1, "b", 0))
			commit(s, 3, nil, row(2, "a", 0))
			return nil
		}, []int{1}, true},
		{"handed over inside one block", func(s Backend) *TxRecord {
			one := commit(s, 1, nil, row(1, "a", 0))
			rec := NewTxRecord(s.BeginTx(), 1)
			if err := s.MarkDelete(rec, "t", one[0].ID); err != nil {
				t.Fatal(err)
			}
			s.CommitTx(rec, 2)
			commit(s, 2, nil, row(2, "a", 0))
			return nil
		}, []int{1}, true},
		{"composite without collision", func(s Backend) *TxRecord {
			commit(s, 1, nil, row(1, "a", 7), row(2, "a", 8))
			return nil
		}, []int{1, 2}, true},
		{"provisional duplicate", func(s Backend) *TxRecord {
			commit(s, 1, nil, row(1, "a", 0))
			rec := NewTxRecord(s.BeginTx(), 1)
			if _, err := s.Insert(rec, "t", row(2, "a", 0)); err != nil {
				t.Fatal(err)
			}
			return rec
		}, []int{1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, s Backend) {
				if err := s.CreateTable(testSchema("t")); err != nil {
					t.Fatal(err)
				}
				inFlight := tc.history(s)
				tab, _ := s.Table("t")
				epoch := s.SchemaEpoch()
				err := s.CreateIndex("t", "t_uq", tc.cols, true)
				if tc.ok != (err == nil) || !tc.ok && !errors.Is(err, ErrUniqueViolation) {
					t.Fatalf("CREATE UNIQUE INDEX: err = %v, want ok=%v", err, tc.ok)
				}
				if _, has := tab.IndexCols("t_uq"); has != tc.ok || (s.SchemaEpoch() != epoch) != tc.ok {
					t.Fatalf("index in catalog %v, epoch %d → %d", has, epoch, s.SchemaEpoch())
				}
				if inFlight != nil {
					if err := s.Validate(inFlight, s.Height()+1); err == nil {
						t.Fatal("the provisional duplicate passed its commit turn")
					}
					s.AbortTx(inFlight)
				}
			})
		})
	}
}

// TestVacuumKeepsCountsAndReads: Vacuum empties the heap slots of the
// versions it removes, CountVersions follows it down and matches what a
// provenance scan still reaches, and what stays reads as before.
func TestVacuumKeepsCountsAndReads(t *testing.T) {
	s := newTestStore(t)
	live := make([]uint64, 3)
	for id := range live {
		live[id] = insertCommitted(t, s, "t", row(int64(id), "v", 1), 1).ID
	}
	first := live[0]
	for blk := int64(2); blk <= 4; blk++ {
		rec := NewTxRecord(s.BeginTx(), blk-1)
		for id := range live {
			if err := s.MarkDelete(rec, "t", live[id]); err != nil {
				t.Fatal(err)
			}
			v, err := s.Insert(rec, "t", row(int64(id), "v", float64(blk)))
			if err != nil {
				t.Fatal(err)
			}
			live[id] = v.ID
		}
		s.CommitTx(rec, blk)
		s.SetHeight(blk)
	}
	want := s.StateHash(4)
	for horizon, versions := int64(1), 12; horizon <= 4; horizon++ {
		removed := s.Vacuum(horizon)
		if horizon > 1 && removed != 3 || horizon == 1 && removed != 0 {
			t.Fatalf("Vacuum(%d) removed %d", horizon, removed)
		}
		versions -= removed
		if n, _ := s.CountVersions("t"); n != versions {
			t.Fatalf("after Vacuum(%d): CountVersions %d, want %d", horizon, n, versions)
		}
		if n := len(scanAll(t, s, "t", 0, 4, ScanProvenance)); n != versions {
			t.Fatalf("after Vacuum(%d): provenance scan reaches %d versions, want %d", horizon, n, versions)
		}
		if s.StateHash(4) != want {
			t.Fatalf("Vacuum(%d) changed the state at height 4", horizon)
		}
	}
	if getVersion(s, "t", first) != nil {
		t.Fatal("a vacuumed version is still in the heap")
	}
	if v := insertCommitted(t, s, "t", row(9, "v", 0), 5); v.ID != live[2]+1 {
		t.Fatalf("insert after vacuum got ref %d, want %d", v.ID, live[2]+1)
	}
}
