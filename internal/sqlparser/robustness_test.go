package sqlparser

import (
	"strings"
	"testing"
)

// TestParserNeverPanics feeds a corpus of malformed, truncated and
// adversarial inputs; every one must return an error or a statement,
// never panic.
func TestParserNeverPanics(t *testing.T) {
	corpus := []string{
		"",
		";",
		";;;",
		"SELECT",
		"SELECT SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT (((((",
		"SELECT )))",
		"SELECT a FROM t GROUP BY",
		"SELECT a FROM t ORDER BY",
		"SELECT a FROM t LIMIT",
		"SELECT a FROM t OFFSET OFFSET",
		"INSERT",
		"INSERT INTO",
		"INSERT INTO t",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES (",
		"INSERT INTO t VALUES (1,)",
		"INSERT INTO t (a,) VALUES (1)",
		"UPDATE",
		"UPDATE t",
		"UPDATE t SET",
		"UPDATE t SET a",
		"UPDATE t SET a =",
		"DELETE",
		"DELETE FROM",
		"CREATE",
		"CREATE TABLE",
		"CREATE TABLE t",
		"CREATE TABLE t (",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a)",
		"CREATE TABLE t (a BIGINT,)",
		"CREATE INDEX",
		"CREATE INDEX i ON",
		"CREATE INDEX i ON t",
		"CREATE INDEX i ON t ()",
		"DROP",
		"DROP TABLE",
		"CASE",
		"SELECT CASE WHEN THEN END",
		"SELECT 1 +",
		"SELECT 1 + + +",
		"SELECT 'unterminated",
		"SELECT $",
		"SELECT $0",
		"SELECT a.b.c FROM t",
		"SELECT COUNT(DISTINCT) FROM t",
		"SELECT f( FROM t",
		"SELECT a FROM t JOIN",
		"SELECT a FROM t JOIN u",
		"SELECT a FROM t JOIN u ON",
		"SELECT a FROM t LEFT",
		"SELECT a BETWEEN AND 2 FROM t",
		"SELECT a IN FROM t",
		"SELECT a IS FROM t",
		"SELECT a NOT FROM t",
		"SELECT CAST(a AS) FROM t",
		"SELECT CAST(a WIBBLE) FROM t",
		"\x00\x01\x02",
		strings.Repeat("(", 500) + "1" + strings.Repeat(")", 500),
		strings.Repeat("SELECT 1;", 100),
		"SELECT " + strings.Repeat("1+", 500) + "1",
		"-- just a comment",
		"/* unterminated comment",
		"SELECT a FROM t -- trailing",
		"sElEcT A fRoM T wHeRe A = 1",
	}
	for _, src := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			_, _ = ParseStatement(src)
			_, _ = ParseStatements(src)
			_, _ = ParseExprString(src)
			_, _ = tokenize(src)
		}()
	}
}

// TestDeepNestingIsBounded ensures heavily nested expressions parse (or
// fail) without exhausting the stack.
func TestDeepNestingIsBounded(t *testing.T) {
	depth := 2000
	src := "SELECT " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("panic on deep nesting: %v", r)
		}
	}()
	_, _ = ParseStatement(src)
}

// TestKeywordsAsIdentifiersRejected pins that reserved words cannot be
// table or column names.
func TestKeywordsAsIdentifiersRejected(t *testing.T) {
	bad := []string{
		`CREATE TABLE select (a BIGINT PRIMARY KEY)`,
		`SELECT from FROM t`,
		`INSERT INTO where VALUES (1)`,
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("%q unexpectedly parsed", src)
		}
	}
}

// TestStatementsRoundTripSemantics spot-checks that parsing the same
// source twice yields structurally identical statements.
func TestStatementsRoundTripSemantics(t *testing.T) {
	srcs := []string{
		`SELECT a, b + 1 AS c FROM t JOIN u ON t.id = u.id WHERE a > 5 GROUP BY a, b + 1 HAVING COUNT(*) > 1 ORDER BY c DESC LIMIT 3 OFFSET 1`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
		`UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3)`,
		`CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT NOT NULL, c DOUBLE DEFAULT 1.5)`,
	}
	for _, src := range srcs {
		s1, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		s2, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(StatementTables(s1)) != len(StatementTables(s2)) {
			t.Errorf("%q: unstable parse", src)
		}
	}
}
