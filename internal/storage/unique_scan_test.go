package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bcrdb/internal/index"
	"bcrdb/internal/types"
)

// The unique-scan history: table u (id, code, grp, val) with a unique
// primary key on id, a unique index on code, a non-unique one on grp and a
// unique composite one on (grp, code). Small key domains make transactions
// collide on every unique index.
const (
	uqIDs    = 10
	uqCodes  = 14
	uqGroups = 4
)

func uqRow(id, code, grp, val int64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(code), types.NewInt(grp), types.NewInt(val)}
}

// uqHistory drives seeded transactions into one store the way the engine
// does: every write is preceded by a read at the transaction's snapshot
// that skips what the transaction superseded, every commit passes Validate
// first, and a transaction whose statement fails is aborted.
type uqHistory struct {
	tb       testing.TB
	s        *Store
	rnd      *rand.Rand
	inFlight []*TxRecord
	height   int64
	counts   map[string]int // what the history exercised, by kind
}

func newUQHistory(tb testing.TB, seed int64) *uqHistory {
	s := NewStore()
	if err := s.CreateTable(Schema{
		Name: "u",
		Columns: []Column{
			{Name: "id", Type: types.KindInt}, {Name: "code", Type: types.KindInt},
			{Name: "grp", Type: types.KindInt}, {Name: "val", Type: types.KindInt},
		},
		PKCols: []int{0},
	}); err != nil {
		tb.Fatal(err)
	}
	for _, ix := range []struct {
		name   string
		cols   []int
		unique bool
	}{{"u_code", []int{1}, true}, {"u_grp", []int{2}, false}, {"u_grp_code", []int{2, 1}, true}} {
		if err := s.CreateIndex("u", ix.name, ix.cols, ix.unique); err != nil {
			tb.Fatal(err)
		}
	}
	// Block 1 holds one row per id, so most statements find a row.
	rec := NewTxRecord(s.BeginTx(), 0)
	for id := int64(0); id < uqIDs; id++ {
		if _, err := s.Insert(rec, "u", uqRow(id, id, id%uqGroups, 0)); err != nil {
			tb.Fatal(err)
		}
	}
	s.CommitTx(rec, 1)
	s.SetHeight(1)
	return &uqHistory{tb: tb, s: s, rnd: rand.New(rand.NewSource(seed)), height: 1, counts: map[string]int{}}
}

// find returns the versions of key in ixName that rec sees.
func (h *uqHistory) find(rec *TxRecord, ixName string, key int64) []*RowVersion {
	rng := index.PointRange(types.Key{types.NewInt(key)})
	rec.NoteRange("u", ixName, rng)
	var out []*RowVersion
	if err := h.s.ScanIndex("u", ixName, rng, rec.ID, rec.SnapshotHeight, ScanVisible, func(v *RowVersion) bool {
		if !rec.Supersedes("u", v.ID) {
			rec.NoteRead("u", v.ID)
			out = append(out, v)
		}
		return true
	}); err != nil {
		h.tb.Fatal(err)
	}
	return out
}

// step runs one random statement of rec and returns its error.
func (h *uqHistory) step(rec *TxRecord) error {
	r := h.rnd
	switch op := r.Intn(8); op {
	case 0: // INSERT
		h.counts["insert"]++
		_, err := h.s.Insert(rec, "u", uqRow(r.Int63n(uqIDs), r.Int63n(uqCodes), r.Int63n(uqGroups), 0))
		return err
	case 1, 2, 3, 4: // UPDATE by id or by code, sometimes moving the row to a new key
		ixName, key := "u_pkey", r.Int63n(uqIDs)
		if op > 2 {
			ixName, key = "u_code", r.Int63n(uqCodes)
		}
		for _, v := range h.find(rec, ixName, key) {
			id, code, grp := v.Data[0].Int(), v.Data[1].Int(), v.Data[2].Int()
			switch r.Intn(4) {
			case 0:
				id = r.Int63n(uqIDs)
				h.counts["update-new-id"]++
			case 1:
				code, grp = r.Int63n(uqCodes), r.Int63n(uqGroups)
				h.counts["update-new-code"]++
			default:
				h.counts["update"]++
			}
			if err := h.s.MarkDelete(rec, "u", v.ID); err != nil {
				return err
			}
			if _, err := h.s.Insert(rec, "u", uqRow(id, code, grp, v.Data[3].Int()+1)); err != nil {
				return err
			}
		}
	case 5: // DELETE
		for _, v := range h.find(rec, "u_pkey", r.Int63n(uqIDs)) {
			h.counts["delete"]++
			if err := h.s.MarkDelete(rec, "u", v.ID); err != nil {
				return err
			}
		}
	case 6: // INSERT, then DELETE of the row just inserted
		v, err := h.s.Insert(rec, "u", uqRow(r.Int63n(uqIDs), r.Int63n(uqCodes), r.Int63n(uqGroups), 0))
		if err != nil {
			return err
		}
		h.counts["own-insert-deleted"]++
		return h.s.MarkDelete(rec, "u", v.ID)
	case 7: // SELECT by group
		rng := index.PointRange(types.Key{types.NewInt(r.Int63n(uqGroups))})
		rec.NoteRange("u", "u_grp", rng)
	}
	return nil
}

// block runs one block: new transactions begin at the current height,
// in-flight ones run statements, some commit into the next block (in order,
// each validated first) and some abort.
func (h *uqHistory) block() {
	r := h.rnd
	for n := 1 + r.Intn(3); n > 0; n-- {
		h.inFlight = append(h.inFlight, NewTxRecord(h.s.BeginTx(), h.height))
	}
	next := h.height + 1
	h.inFlight = slices.DeleteFunc(h.inFlight, func(rec *TxRecord) bool {
		for n := r.Intn(4); n > 0; n-- {
			if err := h.step(rec); err != nil {
				h.counts["statement-error"]++
				h.s.AbortTx(rec)
				return true
			}
		}
		switch r.Intn(6) {
		case 0, 1:
			if err := h.s.Validate(rec, next); err != nil {
				h.counts["validate-refused"]++
				h.s.AbortTx(rec)
			} else {
				h.counts["commit"]++
				h.s.CommitTx(rec, next)
			}
			return true
		case 2:
			h.counts["abort"]++
			h.s.AbortTx(rec)
			return true
		}
		return false
	})
	h.s.SetHeight(next)
	h.height = next
}

// uqRanges returns the ranges compared on each index: the whole index,
// every point key of its domain and a few random closed or open ranges.
func (h *uqHistory) uqRanges(cols []int) []index.Range {
	domain := []int64{uqIDs, uqCodes, uqGroups} // by column ordinal
	first := domain[cols[0]] + 1                // one past the domain: a key never written
	rngs := []index.Range{index.AllRange()}
	for k := int64(0); k <= first; k++ {
		rngs = append(rngs, index.PrefixRange(types.Key{types.NewInt(k)}))
		if len(cols) == 2 {
			second := domain[cols[1]]
			rngs = append(rngs, index.PointRange(types.Key{types.NewInt(k), types.NewInt(h.rnd.Int63n(second))}))
		}
	}
	for i := 0; i < 3; i++ {
		lo := h.rnd.Int63n(first)
		rngs = append(rngs, index.Range{
			Lo: types.Key{types.NewInt(lo)}, Hi: types.Key{types.NewInt(lo + h.rnd.Int63n(4))},
			LoInc: h.rnd.Intn(2) == 0, HiInc: h.rnd.Intn(2) == 0,
		})
	}
	return rngs
}

type uqView struct {
	self   TxID
	height int64
}

// check compares ScanIndex with the full walk on every index over every
// range, for each view.
func (h *uqHistory) check(views []uqView) {
	tab, err := h.s.Table("u")
	if err != nil {
		h.tb.Fatal(err)
	}
	for _, ixName := range tab.Indexes() {
		cols, _ := tab.IndexCols(ixName)
		for _, rng := range h.uqRanges(cols) {
			for _, vw := range views {
				got := uqCollect(h.tb, func(fn func(*RowVersion) bool) error {
					return h.s.ScanIndex("u", ixName, rng, vw.self, vw.height, ScanVisible, fn)
				})
				want := uqCollect(h.tb, func(fn func(*RowVersion) bool) error {
					return h.s.scanFullWalk("u", ixName, rng, vw.self, vw.height, fn)
				})
				if !slices.Equal(got, want) {
					h.tb.Fatalf("%s %+v self %d height %d:\n scan      %v\n full walk %v", ixName, rng, vw.self, vw.height, got, want)
				}
				h.counts["views-compared"]++
			}
		}
	}
}

func uqCollect(tb testing.TB, scan func(fn func(*RowVersion) bool) error) []string {
	var out []string
	if err := scan(func(v *RowVersion) bool {
		out = append(out, fmt.Sprintf("%d:%s", v.ID, v.Data))
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

// runUniqueScanHistory plays blocks blocks of the seeded history. After
// each block it compares every in-flight transaction's view at its own
// snapshot — the only height a transaction ever reads at — and the
// committed view at the new height; at the end, the committed view at
// every height 0..H. A committed view of a past height is fixed once its
// block committed (no vacuum runs here), so the final sweep sees each one
// as it was.
func runUniqueScanHistory(tb testing.TB, seed int64, blocks int) *uqHistory {
	h := newUQHistory(tb, seed)
	for i := 0; i < blocks; i++ {
		h.block()
		views := []uqView{{0, h.height}}
		for _, rec := range h.inFlight {
			views = append(views, uqView{rec.ID, rec.SnapshotHeight})
		}
		h.check(views)
	}
	var views []uqView
	for ht := int64(0); ht <= h.height; ht++ {
		views = append(views, uqView{0, ht})
	}
	h.check(views)
	return h
}

// TestUniqueScanMatchesFullWalk holds ScanIndex to the full ascending walk
// over seeded histories of inserts, key-changing updates, deletes, a
// transaction's own insert deleted again, aborts and commit-turn refusals,
// with other transactions' provisional versions in flight throughout.
func TestUniqueScanMatchesFullWalk(t *testing.T) {
	total := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		h := runUniqueScanHistory(t, seed, 60)
		for k, n := range h.counts {
			total[k] += n
		}
	}
	t.Logf("exercised: %v", total)
	for _, k := range []string{"insert", "update", "update-new-id", "update-new-code", "delete",
		"own-insert-deleted", "statement-error", "validate-refused", "commit", "abort"} {
		if total[k] == 0 {
			t.Errorf("the histories never exercised %s", k)
		}
	}
}

func FuzzUniqueScan(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runUniqueScanHistory(t, seed, 12)
	})
}
