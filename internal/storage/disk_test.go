package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
	"bcrdb/internal/wal"
)

// setHeightDurable bumps the committed height and marks it durable — the
// two calls the node's commit and seal stages issue respectively.
func setHeightDurable(s Backend, h int64) {
	s.SetHeight(h)
	s.MarkDurable(h)
}

func openDiskT(t *testing.T, path string) *DiskStore {
	t.Helper()
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// driveHistory applies an identical scripted history — DDL, inserts,
// updates, deletes over blocks 1..5 — to any backend, so a disk store
// can be compared against an "always-up" in-memory peer. It returns the
// final height.
func driveHistory(t *testing.T, s Backend) int64 {
	t.Helper()
	if err := s.CreateTable(testSchema("t")); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("t", "t_val", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	refs := make(map[int64]uint64) // pk -> live heap ref

	// Blocks 1-2: inserts.
	for blk := int64(1); blk <= 2; blk++ {
		rec := NewTxRecord(s.BeginTx(), blk-1)
		for i := int64(0); i < 10; i++ {
			id := (blk-1)*10 + i
			v, err := s.Insert(rec, "t", row(id, fmt.Sprintf("b%d", blk), float64(id)))
			if err != nil {
				t.Fatal(err)
			}
			refs[id] = v.ID
		}
		s.CommitTx(rec, blk)
		setHeightDurable(s, blk)
	}
	// Block 3: update rows 0-4 (delete old version + insert new).
	rec := NewTxRecord(s.BeginTx(), 2)
	for id := int64(0); id < 5; id++ {
		if err := s.MarkDelete(rec, "t", refs[id]); err != nil {
			t.Fatal(err)
		}
		v, err := s.Insert(rec, "t", row(id, "updated", float64(id)*2))
		if err != nil {
			t.Fatal(err)
		}
		refs[id] = v.ID
	}
	s.CommitTx(rec, 3)
	setHeightDurable(s, 3)
	// Block 4: delete rows 15-17.
	rec = NewTxRecord(s.BeginTx(), 3)
	for id := int64(15); id <= 17; id++ {
		if err := s.MarkDelete(rec, "t", refs[id]); err != nil {
			t.Fatal(err)
		}
	}
	s.CommitTx(rec, 4)
	setHeightDurable(s, 4)
	// Block 5: an aborted transaction (must leave no durable trace) and
	// one more insert.
	ab := NewTxRecord(s.BeginTx(), 4)
	if _, err := s.Insert(ab, "t", row(99, "aborted", 0)); err != nil {
		t.Fatal(err)
	}
	s.AbortTx(ab)
	rec = NewTxRecord(s.BeginTx(), 4)
	if _, err := s.Insert(rec, "t", row(50, "b5", 50)); err != nil {
		t.Fatal(err)
	}
	s.CommitTx(rec, 5)
	setHeightDurable(s, 5)
	return 5
}

// TestDiskBackendRestartMatchesAlwaysUpPeer drives the same history into
// a disk store and an in-memory peer, "crashes" the disk store (no
// Close), reopens it, and requires the identical state hash at every
// height — including provenance reads of superseded versions.
func TestDiskBackendRestartMatchesAlwaysUpPeer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	peer := NewStore()

	h := driveHistory(t, d)
	if ph := driveHistory(t, peer); ph != h {
		t.Fatalf("histories diverge: %d vs %d", h, ph)
	}

	// Crash: reopen without Close.
	d2 := openDiskT(t, path)
	defer d2.Close()
	if got := d2.Height(); got != h {
		t.Fatalf("restored height = %d, want %d", got, h)
	}
	for hh := int64(0); hh <= h; hh++ {
		if d2.StateHash(hh) != peer.StateHash(hh) {
			t.Fatalf("state hash diverges from always-up peer at height %d", hh)
		}
	}
	// Superseded versions (provenance) survive the restart.
	nd, _ := d2.CountVersions("t")
	np, _ := peer.CountVersions("t")
	if nd != np {
		t.Fatalf("version count %d, peer has %d", nd, np)
	}
	// Secondary index usable after replay.
	rows := 0
	if err := d2.ScanIndex("t", "t_val", index.AllRange(), 0, h, ScanVisible,
		func(v *RowVersion) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("secondary index empty after replay")
	}
	// New writes continue cleanly after recovery (fresh refs, no unique
	// collisions with restored state).
	insertCommitted(t, d2, "t", row(60, "post", 60), h+1)
	if n, _ := d2.CountVisible("t", h+1); n == 0 {
		t.Fatal("post-recovery insert invisible")
	}
}

// TestDiskBackendCrashMidBlock kills the store after a commit frame was
// appended but before the block's height frame (and adds a torn partial
// frame on top — a crash mid-append). Replay must discard the partial
// block entirely and compact the log so a later re-processing of that
// block cannot double-apply.
func TestDiskBackendCrashMidBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	peer := NewStore()
	h := driveHistory(t, d)
	driveHistory(t, peer)
	want := peer.StateHash(h)

	// Crash mid-block h+1: the commit frame lands in the log, the height
	// frame does not.
	rec := NewTxRecord(d.BeginTx(), h)
	if _, err := d.Insert(rec, "t", row(999, "lost", 1)); err != nil {
		t.Fatal(err)
	}
	d.CommitTx(rec, h+1)
	// ... and the crash tears a final append in half.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 200, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := openDiskT(t, path)
	if got := d2.Height(); got != h {
		t.Fatalf("restored height = %d, want %d (partial block must be dropped)", got, h)
	}
	if d2.StateHash(h) != want {
		t.Fatal("state hash diverges after dropping partial block")
	}
	if n, _ := d2.CountVisible("t", h+1); n != countVisible(t, peer, h) {
		t.Fatal("dropped block's writes leaked into restored state")
	}
	// The compaction must have removed the dropped frames from the log:
	// nothing beyond the horizon may remain.
	frames, err := wal.ReadAllRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if len(fr) > 0 && fr[0] == opCommit {
			dec := newFrameDec(fr)
			if blk := dec.Varint(); blk > h {
				t.Fatalf("log still holds a commit frame for block %d > horizon %d", blk, h)
			}
		}
	}
	d2.Close()

	// Re-processing the block (as node recovery would) and restarting
	// again must not double-apply.
	d3 := openDiskT(t, path)
	rec = NewTxRecord(d3.BeginTx(), h)
	if _, err := d3.Insert(rec, "t", row(999, "reprocessed", 1)); err != nil {
		t.Fatal(err)
	}
	d3.CommitTx(rec, h+1)
	setHeightDurable(d3, h+1)
	wantN, _ := d3.CountVersions("t")
	d3.Close()

	d4 := openDiskT(t, path)
	defer d4.Close()
	if gotN, _ := d4.CountVersions("t"); gotN != wantN {
		t.Fatalf("double apply after re-processing: %d versions, want %d", gotN, wantN)
	}
}

func countVisible(t *testing.T, s Backend, h int64) int {
	t.Helper()
	n, err := s.CountVisible("t", h)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// newFrameDec skips the kind byte.
func newFrameDec(f []byte) *frameDec { return &frameDec{b: f[1:]} }

type frameDec struct{ b []byte }

func (d *frameDec) Varint() int64 {
	v, n := varint(d.b)
	d.b = d.b[n:]
	return v
}

// varint decodes a zig-zag varint (mirrors codec's encoding).
func varint(b []byte) (int64, int) {
	var u uint64
	var shift, n int
	for {
		c := b[n]
		u |= uint64(c&0x7f) << shift
		n++
		if c < 0x80 {
			break
		}
		shift += 7
	}
	return int64(u>>1) ^ -int64(u&1), n
}

// TestDiskBackendVacuumReplayed checks that pruning survives a restart:
// vacuumed versions stay gone and the state hash is unchanged.
func TestDiskBackendVacuumReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	h := driveHistory(t, d)
	removed := d.Vacuum(h - 1)
	if removed == 0 {
		t.Fatal("vacuum removed nothing")
	}
	wantN, _ := d.CountVersions("t")
	want := d.StateHash(h)

	d2 := openDiskT(t, path)
	defer d2.Close()
	if gotN, _ := d2.CountVersions("t"); gotN != wantN {
		t.Fatalf("replayed version count %d, want %d (vacuum not replayed)", gotN, wantN)
	}
	if d2.StateHash(h) != want {
		t.Fatal("state hash changed across vacuum replay")
	}
}

// TestDiskBackendDDLSurvivesRestart covers catalog replay: dropped
// tables stay dropped, created ones come back with their schema class.
func TestDiskBackendDDLSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	sc := testSchema("gone")
	if err := d.CreateTable(sc); err != nil {
		t.Fatal(err)
	}
	priv := testSchema("private_t")
	priv.Class = ClassPrivate
	if err := d.CreateTable(priv); err != nil {
		t.Fatal(err)
	}
	if err := d.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	setHeightDurable(d, 1)

	d2 := openDiskT(t, path)
	defer d2.Close()
	if d2.HasTable("gone") {
		t.Fatal("dropped table resurrected by replay")
	}
	tab, err := d2.Table("private_t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Schema(); got.Class != ClassPrivate {
		t.Fatalf("schema class lost: class=%d", got.Class)
	}
}

func valueEq(a, b types.Value) bool { return types.Compare(a, b) == 0 && a.Kind() == b.Kind() }

// TestDiskBackendRowFidelity spot-checks that replayed rows carry the
// exact values and creator/deleter stamps of the originals.
func TestDiskBackendRowFidelity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	peer := NewStore()
	h := driveHistory(t, d)
	driveHistory(t, peer)

	d2 := openDiskT(t, path)
	defer d2.Close()
	got := scanAll(t, d2, "t", 0, h, ScanProvenance)
	want := scanAll(t, peer, "t", 0, h, ScanProvenance)
	if len(got) != len(want) {
		t.Fatalf("provenance scan: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if !valueEq(got[i][c], want[i][c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestDiskRestartOverHeapHoles restarts a disk store whose log skips the
// refs of aborted versions — a run of 1100 of them —
// and requires the version count, the visible counts, the state hash and
// the scans of both indexes to read as before the restart; a unique index
// refused before the restart was never logged.
func TestDiskRestartOverHeapHoles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	h := driveHistory(t, d)
	ab := NewTxRecord(d.BeginTx(), h)
	for i := int64(0); i < 1100; i++ {
		if _, err := d.Insert(ab, "t", row(1000+i, "aborted", 0)); err != nil {
			t.Fatal(err)
		}
	}
	d.AbortTx(ab)
	h++
	for i := int64(0); i < 20; i++ {
		insertCommitted(t, d, "t", row(100+i, fmt.Sprintf("late%d", i%3), 0), h)
	}
	if err := d.CreateIndex("t", "t_val_uq", []int{1}, true); err == nil {
		t.Fatal("unique index over duplicate values accepted")
	}

	type snapshot struct {
		versions int
		visible  []int
		hashes   [][32]byte
		scans    []string
	}
	take := func(s Backend) snapshot {
		var sn snapshot
		sn.versions, _ = s.CountVersions("t")
		for hh := int64(0); hh <= h; hh++ {
			sn.visible = append(sn.visible, countVisible(t, s, hh))
			sn.hashes = append(sn.hashes, s.StateHash(hh))
			for _, ixName := range []string{"t_pkey", "t_val"} {
				for _, mode := range []ScanMode{ScanVisible, ScanProvenance} {
					if err := s.ScanIndex("t", ixName, index.AllRange(), 0, hh, mode, func(v *RowVersion) bool {
						sn.scans = append(sn.scans, fmt.Sprintf("%s@%d/%d: %d %s", ixName, hh, mode, v.ID, v.Data))
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return sn
	}
	want := take(d)
	if want.versions != 46 {
		t.Fatalf("%d versions before the restart, want 46", want.versions)
	}
	d2 := openDiskT(t, path)
	defer d2.Close()
	got := take(d2)
	if got.versions != want.versions || !slices.Equal(got.visible, want.visible) ||
		!slices.Equal(got.hashes, want.hashes) || !slices.Equal(got.scans, want.scans) {
		t.Fatalf("restart changed the store:\n got  %d versions, visible %v\n want %d versions, visible %v",
			got.versions, got.visible, want.versions, want.visible)
	}
	if tab, _ := d2.Table("t"); len(tab.Indexes()) != 2 {
		t.Fatalf("indexes after the restart: %v", tab.Indexes())
	}
	// New versions land past every replayed ref, holes included.
	v := insertCommitted(t, d2, "t", row(200, "post", 0), h+1)
	if v.ID <= uint64(1100) {
		t.Fatalf("post-restart version got ref %d", v.ID)
	}
}
