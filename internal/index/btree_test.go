package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bcrdb/internal/types"
)

func ik(i int64) types.Key { return types.Key{types.NewInt(i)} }

// keyCount is the number of keys a full scan visits.
func keyCount(tr *BTree) int {
	n := 0
	tr.Scan(AllRange(), func(types.Key, []uint64) bool { n++; return true })
	return n
}
func sk(s string) types.Key { return types.Key{types.NewString(s)} }

func TestInsertGetDelete(t *testing.T) {
	tr := New()
	if !tr.Insert(ik(1), 100) {
		t.Error("first insert should report true")
	}
	if tr.Insert(ik(1), 100) {
		t.Error("duplicate (key,ref) insert should report false")
	}
	if !tr.Insert(ik(1), 101) {
		t.Error("same key new ref should report true")
	}
	if got := tr.Get(ik(1)); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Errorf("Get = %v", got)
	}
	if n := keyCount(tr); n != 1 {
		t.Errorf("keys = %d, want 1", n)
	}
	if !tr.Delete(ik(1), 100) {
		t.Error("delete existing ref should report true")
	}
	if tr.Delete(ik(1), 100) {
		t.Error("delete missing ref should report false")
	}
	if got := tr.Get(ik(1)); len(got) != 1 || got[0] != 101 {
		t.Errorf("Get after delete = %v", got)
	}
	if tr.Delete(ik(2), 1) {
		t.Error("delete on absent key should report false")
	}
	tr.Delete(ik(1), 101)
	if n := keyCount(tr); n != 0 {
		t.Errorf("keys after emptying = %d", n)
	}
	if got := tr.Get(ik(1)); got != nil {
		t.Errorf("Get on emptied key = %v", got)
	}
}

func TestRefsStaySorted(t *testing.T) {
	tr := New()
	for _, r := range []uint64{5, 1, 9, 3, 7} {
		tr.Insert(ik(0), r)
	}
	got := tr.Get(ik(0))
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refs = %v, want %v", got, want)
		}
	}
}

func TestScanOrderAfterManyInserts(t *testing.T) {
	tr := New()
	const n = 2000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, p := range perm {
		tr.Insert(ik(int64(p)), uint64(p))
	}
	if got := keyCount(tr); got != n {
		t.Fatalf("keys = %d, want %d", got, n)
	}
	var got []int64
	tr.Scan(AllRange(), func(k types.Key, refs []uint64) bool {
		got = append(got, k[0].Int())
		return true
	})
	if len(got) != n {
		t.Fatalf("scan returned %d keys", len(got))
	}
	for i := 1; i < n; i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("scan out of order at %d: %d then %d", i, got[i-1], got[i])
		}
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(ik(i), uint64(i))
	}
	collect := func(r Range) []int64 {
		var out []int64
		tr.Scan(r, func(k types.Key, refs []uint64) bool {
			out = append(out, k[0].Int())
			return true
		})
		return out
	}
	got := collect(Range{Lo: ik(10), Hi: ik(20), LoInc: true, HiInc: true})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Errorf("[10,20] = %v", got)
	}
	got = collect(Range{Lo: ik(10), Hi: ik(20), LoInc: false, HiInc: false})
	if len(got) != 9 || got[0] != 11 || got[8] != 19 {
		t.Errorf("(10,20) = %v", got)
	}
	got = collect(Range{Lo: ik(95), LoInc: true})
	if len(got) != 5 || got[0] != 95 {
		t.Errorf("[95,∞) = %v", got)
	}
	got = collect(Range{Hi: ik(3), HiInc: false})
	if len(got) != 3 || got[2] != 2 {
		t.Errorf("(-∞,3) = %v", got)
	}
	got = collect(PointRange(ik(50)))
	if len(got) != 1 || got[0] != 50 {
		t.Errorf("point 50 = %v", got)
	}
	got = collect(PointRange(ik(1000)))
	if len(got) != 0 {
		t.Errorf("point 1000 = %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(ik(i), uint64(i))
	}
	count := 0
	tr.Scan(AllRange(), func(k types.Key, refs []uint64) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop visited %d keys", count)
	}
}

func TestPrefixRange(t *testing.T) {
	tr := New()
	for _, pair := range [][2]int64{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		tr.Insert(types.Key{types.NewInt(pair[0]), types.NewInt(pair[1])}, uint64(pair[0]*10+pair[1]))
	}
	var got []uint64
	tr.Scan(PrefixRange(ik(2)), func(k types.Key, refs []uint64) bool {
		got = append(got, refs...)
		return true
	})
	if len(got) != 2 || got[0] != 21 || got[1] != 22 {
		t.Errorf("prefix scan = %v", got)
	}
	r := PrefixRange(ik(2))
	if !r.Contains(types.Key{types.NewInt(2), types.NewInt(99)}) {
		t.Error("prefix range should contain (2,99)")
	}
	if r.Contains(types.Key{types.NewInt(3)}) {
		t.Error("prefix range should not contain (3)")
	}
	if r.Contains(ik(2)[:0]) {
		t.Error("prefix range should not contain shorter key")
	}
}

func TestStringKeys(t *testing.T) {
	tr := New()
	words := []string{"pear", "apple", "fig", "banana", "cherry"}
	for i, w := range words {
		tr.Insert(sk(w), uint64(i))
	}
	var got []string
	tr.Scan(Range{Lo: sk("b"), Hi: sk("f"), LoInc: true, HiInc: true}, func(k types.Key, refs []uint64) bool {
		got = append(got, k[0].Str())
		return true
	})
	want := []string{"banana", "cherry"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("string range scan = %v, want %v", got, want)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Lo: ik(5), Hi: ik(10), LoInc: true, HiInc: false}
	cases := []struct {
		k    int64
		want bool
	}{{4, false}, {5, true}, {7, true}, {10, false}, {11, false}}
	for _, c := range cases {
		if got := r.Contains(ik(c.k)); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.k, got, c.want)
		}
	}
	if !AllRange().Contains(ik(123)) {
		t.Error("AllRange should contain everything")
	}
}

// TestAgainstReferenceModel drives the tree and a map-based reference with
// the same random operations and checks full agreement.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	ref := make(map[int64]map[uint64]bool)

	for step := 0; step < 20000; step++ {
		k := int64(rng.Intn(500))
		r := uint64(rng.Intn(5))
		switch rng.Intn(3) {
		case 0, 1: // insert
			inserted := tr.Insert(ik(k), r)
			if ref[k] == nil {
				ref[k] = make(map[uint64]bool)
			}
			if inserted == ref[k][r] {
				t.Fatalf("step %d: insert(%d,%d) reported %v but ref has %v", step, k, r, inserted, ref[k][r])
			}
			ref[k][r] = true
		case 2: // delete
			deleted := tr.Delete(ik(k), r)
			if deleted != (ref[k] != nil && ref[k][r]) {
				t.Fatalf("step %d: delete(%d,%d) reported %v", step, k, r, deleted)
			}
			if ref[k] != nil {
				delete(ref[k], r)
			}
		}
	}

	// Full scan must equal the sorted reference.
	var wantKeys []int64
	for k, refs := range ref {
		if len(refs) > 0 {
			wantKeys = append(wantKeys, k)
		}
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })

	var gotKeys []int64
	tr.Scan(AllRange(), func(k types.Key, refs []uint64) bool {
		kk := k[0].Int()
		gotKeys = append(gotKeys, kk)
		want := ref[kk]
		if len(refs) != len(want) {
			t.Fatalf("key %d: %d refs, want %d", kk, len(refs), len(want))
		}
		for _, r := range refs {
			if !want[r] {
				t.Fatalf("key %d: unexpected ref %d", kk, r)
			}
		}
		return true
	})
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan found %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key %d: got %d want %d", i, gotKeys[i], wantKeys[i])
		}
	}
}

func TestQuickInsertScanSorted(t *testing.T) {
	f := func(keys []int64) bool {
		tr := New()
		for i, k := range keys {
			tr.Insert(ik(k), uint64(i))
		}
		prev := int64(0)
		first := true
		ok := true
		tr.Scan(AllRange(), func(k types.Key, refs []uint64) bool {
			v := k[0].Int()
			if !first && v <= prev {
				ok = false
				return false
			}
			prev, first = v, false
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
