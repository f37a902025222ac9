package storage

import (
	"errors"
	"path/filepath"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// derivedStandIn registers a derived table "chain" (id BIGINT PRIMARY KEY,
// blk BIGINT) with one secondary index definition on blk. Its provider
// yields row i of blk i for i in 1..height, filtered by rng on the asked
// index's column, in descending order (providers may yield in any order).
func derivedStandIn(t *testing.T, b *Store) {
	t.Helper()
	schema := Schema{Name: "chain", Class: ClassSystem, PKCols: []int{0},
		Columns: []Column{{Name: "id", Type: types.KindInt, NotNull: true}, {Name: "blk", Type: types.KindInt}}}
	scan := func(ixName string, rng index.Range, height int64, fn func(*RowVersion) bool) error {
		for i := height; i >= 1; i-- {
			v := &RowVersion{ID: uint64(i), Data: types.Row{types.NewInt(i), types.NewInt(i)}, CreatorBlk: i, DeleterBlk: NoBlock}
			if rng.Contains(types.Key{v.Data[0]}) && !fn(v) {
				return nil
			}
		}
		return nil
	}
	if err := b.RegisterDerived(schema, []DerivedIndex{{Name: "chain_blk", Cols: []int{1}}}, scan); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedTable: a derived table is read through ScanIndex like a
// stored one, and is nothing else — not written, hashed, logged, vacuumed
// or checkpointed — on both backends.
func TestDerivedTable(t *testing.T) {
	for _, kind := range []Kind{KindMemory, KindDisk} {
		t.Run(string(kind), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "d.store.wal")
			st, err := Open(kind, path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.CreateTable(Schema{Name: "plain", PKCols: []int{0}, Columns: []Column{{Name: "id", Type: types.KindInt}}}); err != nil {
				t.Fatal(err)
			}
			rec := NewTxRecord(st.BeginTx(), 0)
			if _, err := st.Insert(rec, "plain", types.Row{types.NewInt(1)}); err != nil {
				t.Fatal(err)
			}
			st.CommitTx(rec, 1)
			st.SetHeight(3)
			st.MarkDurable(3)
			hashBefore, epochBefore := st.StateHash(3), st.SchemaEpoch()

			derivedStandIn(t, st)
			if st.SchemaEpoch() == epochBefore {
				t.Error("registration did not advance the schema epoch: cached plans would not see the table")
			}
			if st.StateHash(3) != hashBefore {
				t.Error("a derived table moved the state hash")
			}
			tab, err := st.Table("chain")
			if err != nil || !tab.Derived() || tab.PrimaryIndexName() != "chain_pkey" {
				t.Fatalf("catalog entry: %v, %v", tab, err)
			}
			if cols, ok := tab.IndexCols("chain_blk"); !ok || len(cols) != 1 || cols[0] != 1 {
				t.Errorf("index definition chain_blk = %v, %v", cols, ok)
			}
			if plain, _ := st.Table("plain"); plain.Derived() {
				t.Error("stored table reports Derived")
			}

			// Reads go to the provider: range respected, height respected,
			// both scan modes, early stop.
			ids := func(ix string, rng index.Range, height int64, mode ScanMode) (out []int64) {
				t.Helper()
				if err := st.ScanIndex("chain", ix, rng, 0, height, mode, func(v *RowVersion) bool {
					out = append(out, v.Data[0].Int())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			if got := ids("chain_pkey", index.AllRange(), 3, ScanVisible); len(got) != 3 || got[0] != 3 {
				t.Errorf("full scan = %v", got)
			}
			if got := ids("chain_blk", index.PointRange(types.Key{types.NewInt(2)}), 3, ScanProvenance); len(got) != 1 || got[0] != 2 {
				t.Errorf("point scan = %v", got)
			}
			if got := ids("chain_pkey", index.AllRange(), 1, ScanVisible); len(got) != 1 {
				t.Errorf("scan at height 1 = %v", got)
			}
			n := 0
			_ = st.ScanIndex("chain", "chain_pkey", index.AllRange(), 0, 3, ScanVisible, func(*RowVersion) bool { n++; return false })
			if n != 1 {
				t.Errorf("scan went on for %d rows after fn returned false", n)
			}
			if err := st.ScanIndex("chain", "chain_nope", index.AllRange(), 0, 3, ScanVisible, func(*RowVersion) bool { return true }); !errors.Is(err, ErrNoSuchIndex) {
				t.Errorf("unknown index: err = %v", err)
			}
			if c, err := st.CountVisible("chain", 2); err != nil || c != 2 {
				t.Errorf("CountVisible = %d, %v", c, err)
			}
			if c, err := st.CountVersions("chain"); err != nil || c != 0 {
				t.Errorf("CountVersions = %d, %v: a derived table stores nothing", c, err)
			}

			// Every write path refuses.
			wrec := NewTxRecord(st.BeginTx(), 3)
			_, insErr := st.Insert(wrec, "chain", types.Row{types.NewInt(9), types.NewInt(9)})
			for what, err := range map[string]error{
				"Insert":      insErr,
				"MarkDelete":  st.MarkDelete(wrec, "chain", 1),
				"CreateIndex": st.CreateIndex("chain", "chain_extra", []int{1}, false),
				"DropTable":   st.DropTable("chain"),
			} {
				if !errors.Is(err, ErrDerivedTable) {
					t.Errorf("%s on a derived table: err = %v, want ErrDerivedTable", what, err)
				}
			}
			st.AbortTx(wrec)
			if wrec.HasWrites() {
				t.Error("a refused write left something in the transaction record")
			}
			if st.Vacuum(3) != 0 {
				t.Error("vacuum removed versions of a derived table")
			}

			// One name, one table — stored or derived, either order.
			if err := st.CreateTable(Schema{Name: "chain", PKCols: []int{0}, Columns: []Column{{Name: "id", Type: types.KindInt}}}); !errors.Is(err, ErrTableExists) {
				t.Errorf("CreateTable over a derived table: err = %v", err)
			}
			if err := st.RegisterDerived(Schema{Name: "plain", PKCols: []int{0}, Columns: []Column{{Name: "id", Type: types.KindInt}}}, nil,
				func(string, index.Range, int64, func(*RowVersion) bool) error { return nil }); !errors.Is(err, ErrTableExists) {
				t.Errorf("RegisterDerived over a stored table: err = %v", err)
			}

			// Nothing of it reaches the log.
			if kind != KindDisk {
				return
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDisk(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.HasTable("chain") || !re.HasTable("plain") || re.StateHash(3) != hashBefore {
				t.Errorf("reopened store: chain=%v plain=%v, hash equal=%v", re.HasTable("chain"), re.HasTable("plain"), re.StateHash(3) == hashBefore)
			}
		})
	}
}
