package types

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "BIGINT",
		KindFloat:  "DOUBLE",
		KindString: "TEXT",
		KindBytes:  "BYTEA",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != KindBool {
		t.Error("NewBool(true) round trip failed")
	}
	if v := NewInt(-42); v.Int() != -42 {
		t.Error("NewInt round trip failed")
	}
	if v := NewFloat(2.5); v.Float() != 2.5 {
		t.Error("NewFloat round trip failed")
	}
	if v := NewString("hi"); v.Str() != "hi" {
		t.Error("NewString round trip failed")
	}
	if v := NewBytes([]byte{1, 2}); string(v.Bytes()) != "\x01\x02" {
		t.Error("NewBytes round trip failed")
	}
	// Int widens to Float.
	if v := NewInt(3); v.Float() != 3.0 {
		t.Error("Int should widen via Float()")
	}
}

func TestValuePanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic calling Int() on TEXT")
		}
	}()
	NewString("x").Int()
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{Null(), Null(), 0},
		{NewBytes([]byte{1}), NewBytes([]byte{2}), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossKind(t *testing.T) {
	// NULL < BOOL < numeric < TEXT < BYTEA
	ordered := []Value{Null(), NewBool(true), NewInt(5), NewString("a"), NewBytes(nil)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	// Int vs Float compare numerically.
	if Compare(NewInt(1), NewFloat(1.0)) != 0 {
		t.Error("1 should equal 1.0")
	}
	if Compare(NewInt(1), NewFloat(1.5)) != -1 {
		t.Error("1 < 1.5")
	}
	if Compare(NewFloat(2.5), NewInt(2)) != 1 {
		t.Error("2.5 > 2")
	}
}

func TestCompareNaNTotalOrder(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN should equal itself in the total order")
	}
	if Compare(nan, NewFloat(math.Inf(-1))) != -1 {
		t.Error("NaN should sort before -Inf")
	}
	if Compare(NewFloat(0), nan) != 1 {
		t.Error("0 should sort after NaN")
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 5 {
		case 0:
			return Null()
		case 1:
			return NewBool(seed%2 == 0)
		case 2:
			return NewInt(seed)
		case 3:
			return NewFloat(float64(seed) / 3)
		default:
			return NewString(string(rune('a' + seed%26)))
		}
	}
	// Antisymmetry and transitivity on random triples.
	f := func(x, y, z int64) bool {
		a, b, c := gen(x), gen(y), gen(z)
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{NewInt(1)}, Key{NewInt(2)}, -1},
		{Key{NewInt(1), NewInt(5)}, Key{NewInt(1), NewInt(4)}, 1},
		{Key{NewInt(1)}, Key{NewInt(1), NewInt(0)}, -1}, // prefix sorts first
		{Key{}, Key{}, 0},
		{Key{NewString("a"), NewInt(1)}, Key{NewString("a"), NewInt(1)}, 0},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeySortStability(t *testing.T) {
	keys := []Key{
		{NewInt(3)},
		{NewInt(1), NewString("b")},
		{NewInt(1)},
		{NewInt(1), NewString("a")},
		{NewInt(2)},
	}
	sort.Slice(keys, func(i, j int) bool { return CompareKeys(keys[i], keys[j]) < 0 })
	want := []string{"(1)", "(1,a)", "(1,b)", "(2)", "(3)"}
	for i, k := range keys {
		if k.String() != want[i] {
			t.Errorf("sorted[%d] = %s, want %s", i, k, want[i])
		}
	}
}

func TestRowAndKeyClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone should not alias the original row")
	}
}

func TestCoerceToKind(t *testing.T) {
	if v, err := CoerceToKind(NewInt(3), KindFloat); err != nil || v.Float() != 3.0 {
		t.Errorf("int->float coerce failed: %v %v", v, err)
	}
	if v, err := CoerceToKind(NewFloat(4.0), KindInt); err != nil || v.Int() != 4 {
		t.Errorf("whole float->int coerce failed: %v %v", v, err)
	}
	if _, err := CoerceToKind(NewFloat(4.5), KindInt); err == nil {
		t.Error("fractional float->int should fail")
	}
	if _, err := CoerceToKind(NewString("x"), KindInt); err == nil {
		t.Error("text->int should fail")
	}
	if v, err := CoerceToKind(Null(), KindInt); err != nil || !v.IsNull() {
		t.Error("NULL coerces to anything")
	}
	if v, err := CoerceToKind(NewInt(1), KindInt); err != nil || v.Int() != 1 {
		t.Error("same-kind coerce is identity")
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral quoting = %q", got)
	}
	if got := NewInt(7).SQLLiteral(); got != "7" {
		t.Errorf("int literal = %q", got)
	}
	if got := Null().SQLLiteral(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-5), "-5"},
		{NewFloat(1.25), "1.25"},
		{NewString("abc"), "abc"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}
