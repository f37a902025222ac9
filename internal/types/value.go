// Package types defines the value model shared by the SQL engine, the
// storage layer and the ledger: typed scalar values, composite keys and
// the comparison rules that every node must apply identically.
//
// Determinism is the overriding concern. All orderings defined here are
// total (NULL sorts first, cross-type comparisons follow a fixed type
// rank) so that any two replicas iterating the same logical data produce
// rows in the same order.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds. The numeric order of the constants defines
// the cross-type sort rank used by Compare.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindBytes:
		return "BYTEA"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64   // KindBool (0/1) and KindInt
	f    float64 // KindFloat
	s    string  // KindString; KindBytes stores the bytes as a string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a TEXT value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewBytes returns a BYTEA value. The slice is copied.
func NewBytes(b []byte) Value { return Value{kind: KindBytes, s: string(b)} }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if v is not a BOOLEAN.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("types: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// Int returns the integer payload. It panics if v is not a BIGINT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("types: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload, converting BIGINT values. It panics on
// other kinds.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic("types: Float() on " + v.kind.String())
}

// Str returns the string payload. It panics if v is not TEXT or BYTEA.
func (v Value) Str() string {
	if v.kind != KindString && v.kind != KindBytes {
		panic("types: Str() on " + v.kind.String())
	}
	return v.s
}

// Bytes returns the BYTEA payload. It panics if v is not BYTEA.
func (v Value) Bytes() []byte {
	if v.kind != KindBytes {
		panic("types: Bytes() on " + v.kind.String())
	}
	return []byte(v.s)
}

// IsNumeric reports whether v is BIGINT or DOUBLE.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBytes:
		return fmt.Sprintf("\\x%x", v.s)
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (quoting strings).
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.s)
	default:
		return v.String()
	}
}

// typeRank orders kinds for cross-type comparison. NULL < BOOL < numeric
// < TEXT < BYTEA. BIGINT and DOUBLE share a rank and compare numerically.
func typeRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindBytes:
		return 4
	}
	return 5
}

// Compare defines a total order over all values: -1 if a < b, 0 if equal,
// +1 if a > b. NULLs compare equal to each other and before everything
// else. Numeric kinds compare by value (1 == 1.0).
func Compare(a, b Value) int {
	ra, rb := typeRank(a.kind), typeRank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch {
	case a.kind == KindNull:
		return 0
	case a.kind == KindBool:
		return cmpInt(a.i, b.i)
	case ra == 2: // numeric
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i)
		}
		af, bf := a.Float(), b.Float()
		// NaN sorts before all other floats, equal to itself, so the
		// order stays total even for pathological data.
		an, bn := math.IsNaN(af), math.IsNaN(bf)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	default: // TEXT, BYTEA
		return strings.Compare(a.s, b.s)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key is a composite value used as an index key. Keys compare
// lexicographically element-wise; a shorter key that is a prefix of a
// longer one sorts first.
type Key []Value

// CompareKeys compares two composite keys under the total order.
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// String renders the key for diagnostics.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, v := range k {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Row is a tuple of values in table column order.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for diagnostics.
func (r Row) String() string { return Key(r).String() }

// CoerceToKind attempts to convert v to the requested kind, following SQL
// assignment rules (ints widen to floats, anything casts to TEXT
// explicitly but not implicitly). It returns an error when the conversion
// would lose meaning.
func CoerceToKind(v Value, k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch k {
	case KindFloat:
		if v.kind == KindInt {
			return NewFloat(float64(v.i)), nil
		}
	case KindInt:
		if v.kind == KindFloat && v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return NewInt(int64(v.f)), nil
		}
	}
	return Null(), fmt.Errorf("types: cannot coerce %s to %s", v.kind, k)
}
