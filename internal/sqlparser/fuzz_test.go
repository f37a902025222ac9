package sqlparser

import (
	"reflect"
	"testing"
)

// Fuzz targets for the SQL parser. Two properties hold for every input:
//
//  1. No panic — malformed SQL must surface as an error, never crash a
//     node (contract sources and client queries are attacker-supplied).
//  2. Determinism — parsing the same bytes twice yields the same result
//     (same AST or the same error). The compiled-contract cache and the
//     engine's statement cache both assume parse results are pure
//     functions of the source text.
//
// Seeds live in testdata/fuzz/<Target>/ and in the f.Add calls below;
// run `go test -fuzz=FuzzParseStatement ./internal/sqlparser` to explore.

func fuzzSeedsSQL() []string {
	return []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = $1 AND b > 2 ORDER BY a DESC LIMIT 3 OFFSET 1",
		"SELECT COUNT(*), SUM(x * y) FROM t GROUP BY g HAVING COUNT(*) > 1",
		"SELECT o.id, SUM(oi.qty * oi.price) FROM orders o JOIN order_items oi ON oi.order_id = o.id WHERE o.region = $1 GROUP BY o.id",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"UPDATE t SET a = a + 1, b = 'y' WHERE id = $1",
		"DELETE FROM t WHERE a IN (1, 2, 3)",
		"CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT NOT NULL, bal DOUBLE)",
		"CREATE INDEX t_name ON t (name)",
		"DROP TABLE t",
		"SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t",
		"SELECT COALESCE(a, b, 0), ABS(-x), LENGTH('αβγ') FROM t",
		"SELECT * FROM t WHERE s LIKE 'a%' AND d BETWEEN 1 AND 9 AND e IS NOT NULL",
		"EXPLAIN SELECT a FROM t WHERE b = $1 ORDER BY a",
		"EXPLAIN EXPLAIN SELECT 1",
		"SELECT 'unterminated",
		"SELECT ((((",
		"INSERT INTO t VALUES (1,)",
		"",
		";",
	}
}

func FuzzParseStatement(f *testing.F) {
	for _, s := range fuzzSeedsSQL() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st1, err1 := ParseStatement(src)
		st2, err2 := ParseStatement(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error for %q: %q vs %q", src, err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("nondeterministic AST for %q", src)
		}
	})
}

func FuzzParseExprString(f *testing.F) {
	for _, s := range []string{
		"1 + 2 * 3",
		"a AND NOT (b OR c)",
		"x = $1",
		"CASE WHEN a THEN 1 ELSE 2 END",
		"COALESCE(a, 'x') || '!'",
		"f(",
		"1 +",
		"'unterminated",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e1, err1 := ParseExprString(src)
		e2, err2 := ParseExprString(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error for %q: %q vs %q", src, err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("nondeterministic AST for %q", src)
		}
	})
}
