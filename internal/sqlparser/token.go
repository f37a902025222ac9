// Package sqlparser implements the lexer and recursive-descent parser for
// the SQL dialect understood by the engine. The dialect covers everything
// the paper's evaluation needs — DDL, DML, joins, aggregation, grouping,
// ordering, limits — plus the provenance pseudo-columns of §4.2.
package sqlparser

import "fmt"

// TokKind identifies a token class.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokParam // $1, $2, ...
	TokOp    // operators and punctuation
)

// Token is a lexical token with its source position (byte offset).
type Token struct {
	Kind TokKind
	Text string // canonical text; keywords upper-cased
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords is the set of reserved words. Identifiers matching these (case
// insensitive) lex as TokKeyword with upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"ASC": true, "DESC": true, "AS": true, "DISTINCT": true,
	"JOIN": true, "INNER": true, "LEFT": true, "OUTER": true, "ON": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "UNIQUE": true,
	"DROP": true, "PRIMARY": true, "KEY": true, "NOT": true, "NULL": true,
	"DEFAULT": true, "CHECK": true,
	"AND": true, "OR": true, "IS": true, "IN": true, "BETWEEN": true,
	"LIKE": true, "TRUE": true, "FALSE": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"BIGINT": true, "INT": true, "INTEGER": true, "DOUBLE": true,
	"FLOAT": true, "TEXT": true, "VARCHAR": true, "BOOLEAN": true,
	"BYTEA": true, "PRECISION": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"PROVENANCE": true, "CAST": true, "EXPLAIN": true,
	// Procedure-language keywords (shared lexer).
	"FUNCTION": true, "RETURNS": true, "DECLARE": true, "BEGIN": true,
	"IF": true, "ELSIF": true, "RAISE": true, "EXCEPTION": true,
	"RETURN": true, "VOID": true, "LANGUAGE": true, "REPLACE": true,
	"EXCLUDED": true, "CONFLICT": true, "DO": true, "NOTHING": true,
	"FOR": true, "WHILE": true, "LOOP": true, "EXIT": true, "CONTINUE": true,
}
