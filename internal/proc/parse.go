package proc

import (
	"errors"
	"fmt"
	"slices"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// Parse errors.
var (
	ErrNotCreateFunction = errors.New("proc: not a CREATE FUNCTION statement")
	ErrNotDropFunction   = errors.New("proc: not a DROP FUNCTION statement")
)

// The contract language parses on sqlparser's own cursor, as PostgreSQL's
// procedural language hands its SQL to the core parser (ADR-0003 "One
// front end"): the source is lexed once, conditions and other expressions
// end where the expression grammar ends, embedded statements parse where
// they stand, types are CREATE TABLE's, and every error names its line and
// column in the CREATE FUNCTION source.

// ParseCreateFunction parses
//
//	CREATE [OR REPLACE] FUNCTION name(p1 TYPE, ...) RETURNS {VOID|TYPE}
//	AS $$ [DECLARE ...] BEGIN ... END; $$ [LANGUAGE x][;]
//
// and returns the validated procedure. The name of a system contract
// (create_user, submit_deploytx, …) is reserved and refused.
func ParseCreateFunction(src string) (*Procedure, error) {
	p, err := sqlparser.NewParser(src)
	if err != nil {
		return nil, err
	}
	if !p.AcceptKeyword("CREATE") {
		return nil, ErrNotCreateFunction
	}
	proc := &Procedure{Source: src, Returns: types.KindNull}
	if p.AcceptKeyword("OR") {
		if err := p.ExpectKeyword("REPLACE"); err != nil {
			return nil, err
		}
		proc.Replace = true
	}
	if !p.AcceptKeyword("FUNCTION") {
		return nil, ErrNotCreateFunction
	}
	if proc.Name, err = p.ExpectIdent("function name"); err != nil {
		return nil, err
	}
	if _, reserved := builtins[proc.Name]; reserved {
		// It would be stored and never run: Call dispatches system
		// contracts first.
		return nil, fmt.Errorf("proc: %q is a system contract and cannot be redefined", proc.Name)
	}
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	for !p.AcceptOp(")") {
		if len(proc.Params) > 0 {
			if err := p.ExpectOp(","); err != nil {
				return nil, err
			}
		}
		name, err := p.ExpectIdent("parameter name")
		if err != nil {
			return nil, err
		}
		kind, err := p.ParseTypeName()
		if err != nil {
			return nil, err
		}
		proc.Params = append(proc.Params, Param{Name: name, Type: kind})
	}
	if err := expect(p, "RETURNS"); err != nil {
		return nil, err
	}
	if !p.AcceptKeyword("VOID") {
		if proc.Returns, err = p.ParseTypeName(); err != nil {
			return nil, err
		}
	}
	if err := expect(p, "AS", "$$"); err != nil {
		return nil, err
	}
	if err := parseBody(p, proc); err != nil {
		return nil, fmt.Errorf("proc: in function %s: %w", proc.Name, err)
	}
	if p.AcceptKeyword("LANGUAGE") && p.Cur().Kind == sqlparser.TokIdent {
		p.Advance() // language name, informational
	}
	p.AcceptOp(";")
	if !p.AtEOF() {
		return nil, p.ErrHere("unexpected %s after function definition", p.Cur())
	}

	// Duplicate name checks across params and declares.
	seen := map[string]bool{"current_user": true}
	for _, prm := range proc.Params {
		if seen[prm.Name] {
			return nil, fmt.Errorf("proc: duplicate name %q in function %s", prm.Name, proc.Name)
		}
		seen[prm.Name] = true
	}
	for _, d := range proc.Decls {
		if seen[d.Name] {
			return nil, fmt.Errorf("proc: duplicate name %q in function %s", d.Name, proc.Name)
		}
		seen[d.Name] = true
	}
	return proc, nil
}

// ParseDropFunction parses DROP FUNCTION name[;] and returns the name.
func ParseDropFunction(src string) (string, error) {
	p, err := sqlparser.NewParser(src)
	if err != nil {
		return "", err
	}
	if !p.AcceptKeyword("DROP") || !p.AcceptKeyword("FUNCTION") {
		return "", ErrNotDropFunction
	}
	name, err := p.ExpectIdent("function name")
	if err != nil {
		return "", err
	}
	p.AcceptOp(";")
	if !p.AtEOF() {
		return "", p.ErrHere("unexpected %s after DROP FUNCTION", p.Cur())
	}
	return name, nil
}

// expect consumes the given keywords (upper case) and operators in order.
func expect(p *sqlparser.Parser, toks ...string) error {
	for _, t := range toks {
		var err error
		if 'A' <= t[0] && t[0] <= 'Z' {
			err = p.ExpectKeyword(t)
		} else {
			err = p.ExpectOp(t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// expr parses an expression and the keyword or operator that ends it.
func expr(p *sqlparser.Parser, end string) (sqlparser.Expr, error) {
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	return e, expect(p, end)
}

// parseBody parses "[DECLARE decls] BEGIN stmts END[;]" and the closing $$.
func parseBody(p *sqlparser.Parser, proc *Procedure) error {
	if p.AcceptKeyword("DECLARE") {
		for !p.PeekKeyword("BEGIN") {
			name, err := p.ExpectIdent("variable name in DECLARE")
			if err != nil {
				return err
			}
			d := VarDecl{Name: name}
			if d.Type, err = p.ParseTypeName(); err != nil {
				return err
			}
			if p.AcceptOp(":=") {
				d.Init, err = expr(p, ";")
			} else {
				err = expect(p, ";")
			}
			if err != nil {
				return err
			}
			proc.Decls = append(proc.Decls, d)
		}
	}
	if err := expect(p, "BEGIN"); err != nil {
		return err
	}
	body, err := parseStmts(p, "END")
	if err != nil {
		return err
	}
	proc.Body = body
	if err := expect(p, "END"); err != nil {
		return err
	}
	p.AcceptOp(";")
	return expect(p, "$$")
}

// parseStmts parses statements until one of the stop keywords, which is
// not consumed.
func parseStmts(p *sqlparser.Parser, stop ...string) ([]Stmt, error) {
	var out []Stmt
	for !slices.ContainsFunc(stop, p.PeekKeyword) {
		s, err := parseStmt(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// parseStmt parses one statement. Like the functions it calls, it returns
// a statement beside a non-nil error; the caller drops both.
func parseStmt(p *sqlparser.Parser) (Stmt, error) {
	t := p.Cur()
	if t.Kind == sqlparser.TokIdent { // name := expr ;
		p.Advance()
		if err := expect(p, ":="); err != nil {
			return nil, err
		}
		e, err := expr(p, ";")
		return &Assign{Name: t.Text, Expr: e}, err
	}
	if t.Kind != sqlparser.TokKeyword {
		return nil, p.ErrHere("expected statement, found %s", t)
	}
	switch t.Text {
	case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP":
		return parseSQLStmt(p)
	case "IF":
		return parseIf(p)
	case "WHILE":
		p.Advance()
		cond, err := expr(p, "LOOP")
		if err != nil {
			return nil, err
		}
		body, err := parseStmts(p, "END")
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, expect(p, "END", "LOOP", ";")
	case "RAISE":
		p.Advance()
		if err := expect(p, "EXCEPTION"); err != nil {
			return nil, err
		}
		e, err := expr(p, ";")
		return &Raise{Msg: e}, err
	case "RETURN":
		p.Advance()
		if p.AcceptOp(";") {
			return &Return{}, nil
		}
		e, err := expr(p, ";")
		return &Return{Expr: e}, err
	case "EXIT":
		p.Advance()
		return &Exit{}, expect(p, ";")
	case "CONTINUE":
		p.Advance()
		return &Continue{}, expect(p, ";")
	}
	return nil, p.ErrHere("unexpected keyword %s", t.Text)
}

func parseIf(p *sqlparser.Parser) (Stmt, error) {
	p.Advance() // IF
	stmt := &If{}
	for {
		cond, err := expr(p, "THEN")
		if err != nil {
			return nil, err
		}
		body, err := parseStmts(p, "ELSIF", "ELSE", "END")
		if err != nil {
			return nil, err
		}
		stmt.Arms = append(stmt.Arms, CondBlock{Cond: cond, Body: body})
		if !p.AcceptKeyword("ELSIF") {
			break
		}
	}
	if p.AcceptKeyword("ELSE") {
		body, err := parseStmts(p, "END")
		if err != nil {
			return nil, err
		}
		stmt.Else = body
	}
	return stmt, expect(p, "END", "IF", ";")
}

// parseSQLStmt parses one embedded SQL statement and its ";". A SELECT's
// INTO targets may stand anywhere at its top level (PL/pgSQL); they are
// cut out of the token stream before the statement is parsed.
func parseSQLStmt(p *sqlparser.Parser) (Stmt, error) {
	var into []string
	if p.PeekKeyword("SELECT") {
		var err error
		if into, err = p.CutInto(); err != nil {
			return nil, err
		}
	}
	st, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	return &SQLStmt{Stmt: st, IntoVars: into}, expect(p, ";")
}
