package storage

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// validateGoldenPath pins every commit-turn verdict of a seeded
// execute-order history. Re-record it only for a deliberate change to what
// Validate decides, and say so:
//
//	go test ./internal/storage -run TestValidateGolden -update-golden
const validateGoldenPath = "testdata/validate_golden.json"

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/validate_golden.json from the current Validate")

const (
	goldenAccounts  = 64 // ids 1..64 exist from block 1
	goldenNewIDs    = 16 // ids 65..80 only ever come from inserts
	goldenBuildUp   = 31 // blocks 1..31 give every account 31 versions
	goldenBlocks    = 40 // blocks of random transactions after the build-up
	goldenMaxLag    = 5  // snapshots lag the block by 0..5 blocks
	goldenScanWidth = 20 // rows covered by one range scan
)

func goldenOwner(id int64) types.Value { return types.NewString(fmt.Sprintf("o%d", id%8)) }

func goldenRow(id, bal int64) types.Row {
	return types.Row{types.NewInt(id), goldenOwner(id), types.NewInt(bal)}
}

// goldenTx executes one transaction's operations against a backend the
// way the engine does: scans note their range and every row they return,
// and skip versions the transaction itself superseded.
type goldenTx struct {
	s   Backend
	rec *TxRecord
}

func (g goldenTx) scan(ixName string, rng index.Range) []*RowVersion {
	g.rec.NoteRange("acct", ixName, rng)
	var out []*RowVersion
	if err := g.s.ScanIndex("acct", ixName, rng, g.rec.ID, g.rec.SnapshotHeight, ScanVisible, func(v *RowVersion) bool {
		if !g.rec.Supersedes("acct", v.ID) {
			g.rec.NoteRead("acct", v.ID)
			out = append(out, v)
		}
		return true
	}); err != nil {
		panic(err)
	}
	return out
}

func (g goldenTx) point(id int64) *RowVersion {
	if vs := g.scan("acct_pkey", index.PointRange(types.Key{types.NewInt(id)})); len(vs) > 0 {
		return vs[0]
	}
	return nil
}

func (g goldenTx) update(id, delta int64) error {
	v := g.point(id)
	if v == nil {
		return nil
	}
	if err := g.s.MarkDelete(g.rec, "acct", v.ID); err != nil {
		return err
	}
	_, err := g.s.Insert(g.rec, "acct", goldenRow(id, v.Data[2].Int()+delta))
	return err
}

// goldenVerdict runs Validate and renders its result. Which stale read a
// failing record names depends on map order, so a stale-read verdict is
// rendered as Validate's text for the lowest stale read alone plus the
// count of stale reads — every string is still Validate's own output.
func goldenVerdict(s Backend, rec *TxRecord, current int64) string {
	err := s.Validate(rec, current)
	var ve *ValidationError
	if err == nil {
		return "ok"
	}
	if !errors.As(err, &ve) || ve.Kind != "stale-read" {
		return err.Error()
	}
	reads := make([]ItemRef, 0, len(rec.ReadRows))
	for ir := range rec.ReadRows {
		reads = append(reads, ir)
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].Ref < reads[j].Ref })
	first, n := "", 0
	for _, ir := range reads {
		one := &TxRecord{ID: rec.ID, SnapshotHeight: rec.SnapshotHeight, ReadRows: map[ItemRef]struct{}{ir: {}}}
		if err := s.Validate(one, current); err != nil {
			if n++; first == "" {
				first = err.Error()
			}
		}
	}
	return fmt.Sprintf("%s (%d stale reads)", first, n)
}

// runValidateHistory drives the seeded history into s and returns one line
// per transaction of the random phase plus the final state hash. reopen,
// when set, is called after the build-up and returns the backend to
// continue on (the disk leg restarts there, so the random phase validates
// against replayed versions).
func runValidateHistory(t *testing.T, s Backend, reopen func() Backend) []string {
	t.Helper()
	schema := Schema{
		Name: "acct",
		Columns: []Column{
			{Name: "id", Type: types.KindInt},
			{Name: "owner", Type: types.KindString},
			{Name: "bal", Type: types.KindInt},
		},
		PKCols: []int{0},
	}
	if err := s.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("acct", "acct_owner", []int{1}, false); err != nil {
		t.Fatal(err)
	}

	// Build-up: block 1 creates the accounts, every later block updates
	// all of them.
	for b := int64(1); b <= goldenBuildUp; b++ {
		g := goldenTx{s, NewTxRecord(s.BeginTx(), b-1)}
		for id := int64(1); id <= goldenAccounts; id++ {
			var err error
			if b == 1 {
				_, err = s.Insert(g.rec, "acct", goldenRow(id, 1000))
			} else {
				err = g.update(id, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Validate(g.rec, b); err != nil {
			t.Fatalf("build-up block %d: %v", b, err)
		}
		s.CommitTx(g.rec, b)
		setHeightDurable(s, b)
	}
	if reopen != nil {
		s = reopen()
	}

	rng := rand.New(rand.NewSource(28))
	randID := func() int64 { return 1 + rng.Int63n(goldenAccounts+goldenNewIDs) }
	var out []string
	last := int64(goldenBuildUp + goldenBlocks)
	for b := int64(goldenBuildUp + 1); b <= last; b++ {
		// Execute the whole block first, each transaction at its own
		// snapshot, then run the commit turn in block order.
		ntx := 12 + rng.Intn(8)
		txs := make([]goldenTx, ntx)
		execErr := make([]error, ntx)
		// The block's last update and insert targets, reused to make
		// same-block ww and unique pairs.
		var updated, inserted int64
		for i := range txs {
			lag := rng.Int63n(goldenMaxLag + 1)
			g := goldenTx{s, NewTxRecord(s.BeginTx(), b-1-lag)}
			txs[i] = g
			for op, nops := 0, 1+rng.Intn(4); op < nops && execErr[i] == nil; op++ {
				switch k := rng.Intn(10); {
				case k < 2: // point read
					g.point(randID())
				case k < 4: // range scan on the primary key
					lo := 1 + rng.Int63n(goldenAccounts+goldenNewIDs-goldenScanWidth)
					g.scan("acct_pkey", index.Range{
						Lo: types.Key{types.NewInt(lo)}, Hi: types.Key{types.NewInt(lo + goldenScanWidth - 1)},
						LoInc: true, HiInc: true,
					})
				case k == 4: // point range on the non-unique index
					g.scan("acct_owner", index.PointRange(types.Key{goldenOwner(rng.Int63n(8))}))
				case k < 8: // update, half the time the block's last target
					id := randID()
					if updated != 0 && rng.Intn(2) == 0 {
						id = updated
					}
					execErr[i] = g.update(id, int64(rng.Intn(5)+1))
					updated = id
				case k == 8: // delete
					if v := g.point(randID()); v != nil {
						execErr[i] = s.MarkDelete(g.rec, "acct", v.ID)
					}
				default: // blind insert, as INSERT runs: a new key, a deleted one, or the block's last
					id := randID()
					if r := rng.Intn(3); r == 0 && inserted != 0 {
						id = inserted
					} else if r == 1 {
						id = goldenAccounts + 1 + rng.Int63n(goldenNewIDs)
					}
					_, execErr[i] = s.Insert(g.rec, "acct", goldenRow(id, 500))
					inserted = id
				}
			}
		}
		for i, g := range txs {
			line := fmt.Sprintf("block %d tx %d snapshot %d: ", b, i, g.rec.SnapshotHeight)
			if execErr[i] != nil {
				out = append(out, line+"exec: "+execErr[i].Error())
				s.AbortTx(g.rec)
				continue
			}
			v := goldenVerdict(s, g.rec, b)
			out = append(out, line+v)
			if v == "ok" {
				s.CommitTx(g.rec, b)
			} else {
				s.AbortTx(g.rec)
			}
		}
		setHeightDurable(s, b)
	}
	h := s.StateHash(last)
	return append(out, "state "+hex.EncodeToString(h[:]))
}

// TestValidateGolden replays a seeded execute-order history — 64 accounts
// with 31 versions each, then 40 blocks of point reads, 20-row range
// scans, updates and deletes, and blind inserts of new, deleted and live
// keys (same-block ww and unique pairs among them), at snapshots lagging
// 0–5 blocks — and requires every
// commit-turn verdict to match the recording, on the memory store and on
// a disk store restarted after the build-up.
func TestValidateGolden(t *testing.T) {
	got := runValidateHistory(t, NewStore(), nil)
	verdicts := []string{": ok", "stale-read on", "phantom on", "ww-conflict on", "storage: unique on", "exec:"}
	kinds := map[string]int{}
	for _, line := range got {
		for _, k := range verdicts {
			if strings.Contains(line, k) {
				kinds[k]++
			}
		}
	}
	for _, k := range verdicts {
		if kinds[k] == 0 {
			t.Errorf("the history never produces %q; it no longer covers that check", k)
		}
	}
	t.Logf("verdicts: %v", kinds)
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(validateGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(validateGoldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(validateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstDiff(got, want); diff != "" {
		t.Fatalf("memory store: verdicts differ from %s:\n%s", validateGoldenPath, diff)
	}

	path := filepath.Join(t.TempDir(), "store.wal")
	d := openDiskT(t, path)
	got = runValidateHistory(t, d, func() Backend {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d = openDiskT(t, path)
		return d
	})
	defer d.Close()
	if diff := firstDiff(got, want); diff != "" {
		t.Fatalf("disk store after restart: verdicts differ from %s:\n%s", validateGoldenPath, diff)
	}
}

// firstDiff names the first line where got departs from the recording, or
// returns "" when they agree.
func firstDiff(got []string, raw []byte) string {
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		return err.Error()
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf(" line %d\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf(" %d lines, recording has %d", len(got), len(want))
	}
	return ""
}
