package engine

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// parseExpr parses a standalone SQL expression.
func parseExpr(src string) (sqlparser.Expr, error) {
	p, err := sqlparser.NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err == nil && !p.AtEOF() {
		err = p.ErrHere("unexpected %s after expression", p.Cur())
	}
	return e, err
}

// evalStr evaluates a standalone SQL expression.
func evalStr(t *testing.T, src string) (types.Value, error) {
	t.Helper()
	e, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	env := &evalEnv{ctx: &ExecCtx{}}
	return env.eval(e)
}

func TestLikeMatcherBasics(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "_ello", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aaa", "a_a", true},
		{"ab", "a_b", false},
		{"xyz", "x%y%z", true},
		{"mississippi", "%ss%ss%", true},
		{"mississippi", "m%pp_", true},
		{"mississippi", "m%pp__", false},
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.p); got != c.want {
			t.Errorf("matchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestLikeAgainstRegexpReference cross-checks the backtracking matcher
// against a regexp translation over random inputs.
func TestLikeAgainstRegexpReference(t *testing.T) {
	toRegexp := func(p string) *regexp.Regexp {
		var sb strings.Builder
		sb.WriteString("^")
		for _, r := range p {
			switch r {
			case '%':
				sb.WriteString(".*")
			case '_':
				sb.WriteString(".")
			default:
				sb.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		sb.WriteString("$")
		return regexp.MustCompile(sb.String())
	}
	alphabet := []byte("ab%_")
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	gen := func(seed int64, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[abs(seed+int64(i*7))%int64(len(alphabet))])
			seed = seed*1103515245 + 12345
		}
		return sb.String()
	}
	f := func(sSeed, pSeed int64) bool {
		s := strings.ReplaceAll(strings.ReplaceAll(gen(sSeed, int(abs(sSeed)%8+1)), "%", "a"), "_", "b")
		p := gen(pSeed, int(abs(pSeed)%6+1))
		return matchLike(s, p) == toRegexp(p).MatchString(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCastMatrix(t *testing.T) {
	cases := []struct {
		src     string
		want    types.Value
		wantErr bool
	}{
		{`CAST(1 AS DOUBLE)`, types.NewFloat(1), false},
		{`CAST(2.5 AS BIGINT)`, types.NewInt(2), false}, // round half to even
		{`CAST(3.5 AS BIGINT)`, types.NewInt(4), false},
		{`CAST('42' AS BIGINT)`, types.NewInt(42), false},
		{`CAST(' 42 ' AS BIGINT)`, types.NewInt(42), false},
		{`CAST('x' AS BIGINT)`, types.Null(), true},
		{`CAST('2.5' AS DOUBLE)`, types.NewFloat(2.5), false},
		{`CAST(123 AS TEXT)`, types.NewString("123"), false},
		{`CAST(TRUE AS BIGINT)`, types.NewInt(1), false},
		{`CAST(0 AS BOOLEAN)`, types.NewBool(false), false},
		{`CAST('true' AS BOOLEAN)`, types.NewBool(true), false},
		{`CAST('f' AS BOOLEAN)`, types.NewBool(false), false},
		{`CAST('maybe' AS BOOLEAN)`, types.Null(), true},
		{`CAST(NULL AS BIGINT)`, types.Null(), false},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.src)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: expected error, got %v", c.src, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if types.Compare(got, c.want) != 0 || got.Kind() != c.want.Kind() {
			t.Errorf("%s = %v (%s), want %v (%s)", c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestThreeValuedLogicTable(t *testing.T) {
	// Full AND/OR truth tables with NULL.
	cases := []struct {
		src  string
		want string // "t", "f", "n"
	}{
		{`TRUE AND TRUE`, "t"}, {`TRUE AND FALSE`, "f"}, {`TRUE AND NULL`, "n"},
		{`FALSE AND TRUE`, "f"}, {`FALSE AND FALSE`, "f"}, {`FALSE AND NULL`, "f"},
		{`NULL AND TRUE`, "n"}, {`NULL AND FALSE`, "f"}, {`NULL AND NULL`, "n"},
		{`TRUE OR TRUE`, "t"}, {`TRUE OR FALSE`, "t"}, {`TRUE OR NULL`, "t"},
		{`FALSE OR TRUE`, "t"}, {`FALSE OR FALSE`, "f"}, {`FALSE OR NULL`, "n"},
		{`NULL OR TRUE`, "t"}, {`NULL OR FALSE`, "n"}, {`NULL OR NULL`, "n"},
		{`NOT NULL`, "n"}, {`NOT TRUE`, "f"},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		var s string
		switch {
		case got.IsNull():
			s = "n"
		case got.Bool():
			s = "t"
		default:
			s = "f"
		}
		if s != c.want {
			t.Errorf("%s = %s, want %s", c.src, s, c.want)
		}
	}
}

func TestInListNullSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`1 IN (1, 2)`, "t"},
		{`3 IN (1, 2)`, "f"},
		{`3 IN (1, NULL)`, "n"}, // unknown: 3 might equal NULL
		{`1 IN (1, NULL)`, "t"},
		{`NULL IN (1, 2)`, "n"},
		{`3 NOT IN (1, 2)`, "t"},
		{`3 NOT IN (1, NULL)`, "n"},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		var s string
		switch {
		case got.IsNull():
			s = "n"
		case got.Bool():
			s = "t"
		default:
			s = "f"
		}
		if s != c.want {
			t.Errorf("%s = %s, want %s", c.src, s, c.want)
		}
	}
}

func TestComparisonTypeErrors(t *testing.T) {
	if _, err := evalStr(t, `1 < 'x'`); err == nil {
		t.Error("int < text should error")
	}
	if _, err := evalStr(t, `TRUE + 1`); err == nil {
		t.Error("bool arithmetic should error")
	}
	if _, err := evalStr(t, `'a' % 'b'`); err == nil {
		t.Error("text modulo should error")
	}
	if _, err := evalStr(t, `1.5 % 2.0`); err == nil {
		t.Error("float modulo should error")
	}
	if _, err := evalStr(t, `NOT 5`); err == nil {
		t.Error("NOT int should error")
	}
}

func TestExprKeyStableAndDistinct(t *testing.T) {
	exprs := []string{
		`a + b`, `b + a`, `a - b`, `SUM(x)`, `COUNT(*)`, `COUNT(x)`,
		`CASE WHEN a THEN 1 ELSE 2 END`, `a BETWEEN 1 AND 2`, `a IS NULL`,
		`x LIKE 'p%'`, `CAST(a AS BIGINT)`, `t.a`, `a`,
	}
	seen := make(map[string]string)
	for _, s := range exprs {
		e, err := parseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		k := exprKey(e)
		if prev, dup := seen[k]; dup {
			t.Errorf("exprKey collision: %q and %q", prev, s)
		}
		seen[k] = s
		// Stable across reparses.
		e2, _ := parseExpr(s)
		if exprKey(e2) != k {
			t.Errorf("exprKey unstable for %q", s)
		}
	}
}

func TestConcatOperatorSemantics(t *testing.T) {
	got, err := evalStr(t, `'a' || 'b' || 'c'`)
	if err != nil || got.Str() != "abc" {
		t.Fatalf("concat = %v, %v", got, err)
	}
	got, _ = evalStr(t, `'n=' || 5`)
	if got.Str() != "n=5" {
		t.Fatalf("mixed concat = %v", got)
	}
	got, _ = evalStr(t, `'x' || NULL`)
	if !got.IsNull() {
		t.Fatalf("concat with NULL = %v", got)
	}
}

func TestUnaryMinusSemantics(t *testing.T) {
	got, _ := evalStr(t, `-(1 + 2)`)
	if got.Int() != -3 {
		t.Fatalf("-(1+2) = %v", got)
	}
	got, _ = evalStr(t, `-CAST(2 AS DOUBLE)`)
	if got.Float() != -2.0 {
		t.Fatalf("-2.0 = %v", got)
	}
	if _, err := evalStr(t, `-'x'`); err == nil {
		t.Error("negating text should error")
	}
}
