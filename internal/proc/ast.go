// Package proc implements the smart-contract language of the system: a
// deterministic PL/pgSQL-like procedural dialect (§2(1), §4.3 of the
// paper). Contracts are stored-procedure sources recorded in the
// replicated sys_contracts table, so the contract registry itself is
// MVCC-versioned: a transaction always executes the contract version
// visible at its snapshot height, and updating a contract aborts
// in-flight transactions that used the old version (§3.7,
// submit_deployTx) through the ordinary stale-read rule.
//
// The language is deterministic by construction: no time, random,
// sequence or system-information builtins exist; LIMIT requires ORDER BY;
// loops carry an iteration bound.
package proc

import (
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// Param is one declared procedure parameter.
type Param struct {
	Name string
	Type types.Kind
}

// VarDecl is one DECLARE-section variable.
type VarDecl struct {
	Name string
	Type types.Kind
	Init sqlparser.Expr // optional
}

// Procedure is a parsed contract.
type Procedure struct {
	Name    string
	Params  []Param
	Returns types.Kind // KindNull for VOID
	Decls   []VarDecl
	Body    []Stmt
	Source  string // full original CREATE FUNCTION text
	Replace bool   // CREATE OR REPLACE
}

// Stmt is one procedural statement.
type Stmt interface{ procStmt() }

// SQLStmt embeds a SQL statement, optionally capturing the first result
// row into variables (SELECT ... INTO).
type SQLStmt struct {
	Stmt     sqlparser.Statement
	IntoVars []string
}

// Assign is `name := expr;`.
type Assign struct {
	Name string
	Expr sqlparser.Expr
}

// CondBlock is one IF/ELSIF arm.
type CondBlock struct {
	Cond sqlparser.Expr
	Body []Stmt
}

// If is IF ... THEN ... [ELSIF ...]* [ELSE ...] END IF.
type If struct {
	Arms []CondBlock
	Else []Stmt
}

// While is WHILE cond LOOP body END LOOP.
type While struct {
	Cond sqlparser.Expr
	Body []Stmt
}

// Raise aborts the transaction with a message (RAISE EXCEPTION).
type Raise struct {
	Msg sqlparser.Expr
}

// Return exits the procedure, optionally with a value.
type Return struct {
	Expr sqlparser.Expr // may be nil
}

// Exit breaks the innermost loop.
type Exit struct{}

// Continue skips to the next loop iteration.
type Continue struct{}

func (*SQLStmt) procStmt()  {}
func (*Assign) procStmt()   {}
func (*If) procStmt()       {}
func (*While) procStmt()    {}
func (*Raise) procStmt()    {}
func (*Return) procStmt()   {}
func (*Exit) procStmt()     {}
func (*Continue) procStmt() {}
