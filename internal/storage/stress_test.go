package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// forEachBackend runs a test body against every storage backend, so the
// concurrency stress below audits both the in-memory store and the
// WAL-logging disk store.
func forEachBackend(t *testing.T, fn func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) { fn(t, NewStore()) })
	t.Run("disk", func(t *testing.T) {
		d, err := OpenDisk(filepath.Join(t.TempDir(), "store.wal"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		fn(t, d)
	})
}

// TestConcurrentReadersAndWriters hammers one table with concurrent
// scans, inserts and commits; run with -race it doubles as a locking
// audit. This mirrors the execution phase of a block: many transactions
// executing against stable snapshots while the committer stamps versions.
func TestConcurrentReadersAndWriters(t *testing.T) {
	forEachBackend(t, runConcurrentStress)
}

func runConcurrentStress(t *testing.T, s *Store) {
	if err := s.CreateTable(testSchema("t")); err != nil {
		t.Fatal(err)
	}
	// Seed committed data at block 1.
	for i := int64(0); i < 200; i++ {
		insertCommitted(t, s, "t", row(i, "seed", float64(i)), 1)
	}

	const (
		writers = 8
		readers = 8
		rounds  = 50
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	// Writers: each commits its own id range, blocks 2..rounds+1.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := NewTxRecord(s.BeginTx(), 1)
				id := int64(1000 + w*rounds + r)
				if _, err := s.Insert(rec, "t", row(id, fmt.Sprintf("w%d", w), 1)); err != nil {
					errCh <- err
					return
				}
				s.CommitTx(rec, int64(2+r))
			}
		}(w)
	}
	// Readers: snapshot reads at height 1 must always see exactly the
	// seed rows, regardless of concurrent writers.
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := NewTxRecord(s.BeginTx(), 1)
				count := 0
				err := s.ScanIndex("t", "t_pkey", index.AllRange(), rec.ID, 1, ScanVisible,
					func(v *RowVersion) bool {
						count++
						return true
					})
				if err != nil {
					errCh <- err
					return
				}
				if count != 200 {
					errCh <- fmt.Errorf("snapshot leak: saw %d rows at height 1", count)
					return
				}
				s.AbortTx(rec)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Everything committed is visible at the top height.
	n, err := s.CountVisible("t", int64(rounds+2))
	if err != nil {
		t.Fatal(err)
	}
	if n != 200+writers*rounds {
		t.Fatalf("final visible = %d, want %d", n, 200+writers*rounds)
	}
}

// TestSnapshotReadsDuringCommits scans at the store's current height while
// a committer supersedes rows block after block. Visibility is answered
// from the block stamps CommitTx writes under the table latch; a reader
// must see each block's updates all at once and only from that block's height on —
// never a row twice, never a row missing, never half a transaction. With
// -race it also audits the stamp reads against the committer's writes.
func TestSnapshotReadsDuringCommits(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		const (
			rows    = 64
			perTx   = 8 // rows superseded per block, each gaining 1.0
			blocks  = 120
			readers = 4
		)
		if err := s.CreateTable(testSchema("t")); err != nil {
			t.Fatal(err)
		}
		seed := NewTxRecord(s.BeginTx(), 0)
		refs := make([]uint64, rows) // live version of each row; the committer's
		for i := range refs {
			v, err := s.Insert(seed, "t", row(int64(i), "r", 0))
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = v.ID
		}
		s.CommitTx(seed, 1)
		s.SetHeight(1)

		done := make(chan struct{})
		var wg sync.WaitGroup
		errCh := make(chan error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					h := s.Height()
					n, sum := 0, 0.0
					if err := s.ScanIndex("t", "t_pkey", index.AllRange(), 0, h, ScanVisible, func(v *RowVersion) bool {
						n++
						sum += v.Data[2].Float()
						return true
					}); err != nil {
						errCh <- err
						return
					}
					if want := float64(perTx * (h - 1)); n != rows || sum != want {
						errCh <- fmt.Errorf("height %d: %d rows summing to %v, want %d summing to %v", h, n, sum, rows, want)
						return
					}
				}
			}()
		}
		for b := int64(2); b < 2+blocks; b++ {
			rec := NewTxRecord(s.BeginTx(), b-1)
			for k := 0; k < perTx; k++ {
				i := (int(b)*perTx + k) % rows
				old := getVersion(s, "t", refs[i])
				if err := s.MarkDelete(rec, "t", old.ID); err != nil {
					t.Fatal(err)
				}
				v, err := s.Insert(rec, "t", row(int64(i), "r", old.Data[2].Float()+1))
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = v.ID
			}
			if err := s.Validate(rec, b); err != nil {
				t.Fatal(err)
			}
			s.CommitTx(rec, b)
			s.SetHeight(b)
		}
		close(done)
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	})
}

// TestStripedStoreDisjointTables drives the multicore commit pattern:
// per-table committers running fully concurrently (the parallel commit
// turn commits disjoint-table groups from different goroutines), a DDL
// goroutine growing the copy-on-write catalog, catalog readers, and a
// read of each commit's stamp under its table latch while the other tables
// commit. With -race this audits the striped locking that replaced the
// store's global mutex; the final counts prove no commit was lost.
func TestStripedStoreDisjointTables(t *testing.T) {
	forEachBackend(t, runStripedStress)
}

func runStripedStress(t *testing.T, s *Store) {
	const (
		tables = 6
		rounds = 60
	)
	name := func(i int) string { return fmt.Sprintf("t%d", i) }
	for i := 0; i < tables; i++ {
		if err := s.CreateTable(testSchema(name(i))); err != nil {
			t.Fatal(err)
		}
		insertCommitted(t, s, name(i), row(0, "seed", 0), 1)
	}
	s.SetHeight(1)

	var wg sync.WaitGroup
	errCh := make(chan error, tables+3)

	// One committer per table — the shape commitStage produces when every
	// group has a single-table footprint.
	for w := 0; w < tables; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tbl := name(w)
			for r := 0; r < rounds; r++ {
				rec := NewTxRecord(s.BeginTx(), 1)
				if _, err := s.Insert(rec, tbl, row(int64(1+r), "w", float64(r))); err != nil {
					errCh <- err
					return
				}
				if err := s.Validate(rec, int64(2+r)); err != nil {
					errCh <- err
					return
				}
				s.CommitTx(rec, int64(2+r))
				// The commit is visible at its block at once.
				found := false
				err := s.ScanIndex(tbl, tbl+"_pkey", index.PointRange(types.Key{types.NewInt(int64(1 + r))}), 0, int64(2+r), ScanVisible, func(v *RowVersion) bool {
					found = v.CreatorBlk == int64(2+r)
					return false
				})
				if err != nil || !found {
					errCh <- fmt.Errorf("row %d of %s not visible at block %d right after its commit: %v", 1+r, tbl, 2+r, err)
					return
				}
			}
		}(w)
	}
	// DDL: grow the catalog concurrently with the committers' lock-free
	// catalog loads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := s.CreateTable(testSchema(fmt.Sprintf("ddl%d", r))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Catalog readers: every already-created table stays reachable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			for i := 0; i < tables; i++ {
				if _, err := s.Table(name(i)); err != nil || !s.HasTable(name(i)) {
					errCh <- fmt.Errorf("table %s vanished from the catalog: %v", name(i), err)
					return
				}
			}
		}
	}()
	// Aborters: concurrent AbortTx drops provisional versions beside the
	// committers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			rec := NewTxRecord(s.BeginTx(), 1)
			if _, err := s.Insert(rec, name(0), row(int64(10000+r), "x", 0)); err != nil {
				errCh <- err
				return
			}
			s.AbortTx(rec)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	s.SetHeight(int64(rounds + 1))
	for i := 0; i < tables; i++ {
		n, err := s.CountVisible(name(i), int64(rounds+1))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1+rounds {
			t.Fatalf("table %s: visible = %d, want %d", name(i), n, 1+rounds)
		}
	}
	for r := 0; r < rounds; r++ {
		if !s.HasTable(fmt.Sprintf("ddl%d", r)) {
			t.Fatalf("DDL table ddl%d missing after concurrent creates", r)
		}
	}
}

// TestVacuumConcurrentWithReads runs Vacuum while readers scan at recent
// heights; live data above the horizon must stay intact.
func TestVacuumConcurrentWithReads(t *testing.T) {
	s := NewStore()
	if err := s.CreateTable(testSchema("t")); err != nil {
		t.Fatal(err)
	}
	// Build 30 generations of row 1.
	v := insertCommitted(t, s, "t", row(1, "g0", 0), 1)
	for g := 1; g <= 30; g++ {
		rec := NewTxRecord(s.BeginTx(), int64(g))
		if err := s.MarkDelete(rec, "t", v.ID); err != nil {
			t.Fatal(err)
		}
		nv, err := s.Insert(rec, "t", row(1, fmt.Sprintf("g%d", g), float64(g)))
		if err != nil {
			t.Fatal(err)
		}
		s.CommitTx(rec, int64(g+1))
		s.SetHeight(int64(g + 1))
		v = nv
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := 0
			_ = s.ScanIndex("t", "t_pkey", index.AllRange(), 0, 31, ScanVisible,
				func(*RowVersion) bool { res++; return true })
			if res != 1 {
				t.Errorf("live row count = %d", res)
				return
			}
		}
	}()
	removed := s.Vacuum(25)
	close(stop)
	wg.Wait()
	if removed == 0 {
		t.Fatal("vacuum removed nothing")
	}
	// Live row unchanged.
	var got string
	_ = s.ScanIndex("t", "t_pkey", index.AllRange(), 0, 31, ScanVisible,
		func(rv *RowVersion) bool { got = rv.Data[1].Str(); return true })
	if got != "g30" {
		t.Fatalf("live row = %q", got)
	}
}

// TestSnapshotStabilityUnderCommit pins the fundamental MVCC invariant:
// a transaction's view of the database never changes mid-execution, no
// matter what commits around it.
func TestSnapshotStabilityUnderCommit(t *testing.T) {
	s := NewStore()
	_ = s.CreateTable(testSchema("t"))
	insertCommitted(t, s, "t", row(1, "a", 1), 1)

	reader := NewTxRecord(s.BeginTx(), 1)
	readAll := func() []string {
		var out []string
		_ = s.ScanIndex("t", "t_pkey", index.AllRange(), reader.ID, 1, ScanVisible,
			func(v *RowVersion) bool { out = append(out, v.Data[1].Str()); return true })
		return out
	}
	before := readAll()

	// Another tx inserts + commits at block 2, and updates row 1.
	w := NewTxRecord(s.BeginTx(), 1)
	v := getVersion(s, "t", 1)
	// Find row 1's version through the index to be robust.
	var target *RowVersion
	_ = s.ScanIndex("t", "t_pkey", index.PointRange(types.Key{types.NewInt(1)}), 0, 1, ScanVisible,
		func(rv *RowVersion) bool { target = rv; return false })
	_ = v
	if target == nil {
		t.Fatal("seed row missing")
	}
	if err := s.MarkDelete(w, "t", target.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(w, "t", row(1, "a2", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(w, "t", row(2, "b", 2)); err != nil {
		t.Fatal(err)
	}
	s.CommitTx(w, 2)
	s.SetHeight(2)

	after := readAll()
	if len(before) != len(after) || before[0] != after[0] || after[0] != "a" {
		t.Fatalf("snapshot changed mid-transaction: %v → %v", before, after)
	}
}
