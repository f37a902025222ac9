package proc

import (
	"errors"
	"fmt"
	"strings"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/types"
)

// Parse errors.
var (
	ErrNotCreateFunction = errors.New("proc: not a CREATE FUNCTION statement")
	ErrNotDropFunction   = errors.New("proc: not a DROP FUNCTION statement")
)

// ParseCreateFunction parses
//
//	CREATE [OR REPLACE] FUNCTION name(p1 TYPE, ...) RETURNS {VOID|TYPE}
//	AS $$ [DECLARE ...] BEGIN ... END; $$ [LANGUAGE x][;]
//
// and returns the validated procedure. The name of a system contract
// (create_user, submit_deploytx, …) is reserved and refused.
func ParseCreateFunction(src string) (*Procedure, error) {
	toks, err := sqlparser.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &tokCursor{src: src, toks: toks}
	if !p.acceptKW("CREATE") {
		return nil, ErrNotCreateFunction
	}
	proc := &Procedure{Source: src, Returns: types.KindNull}
	if p.acceptKW("OR") {
		if !p.acceptKW("REPLACE") {
			return nil, p.errf("expected REPLACE after OR")
		}
		proc.Replace = true
	}
	if !p.acceptKW("FUNCTION") {
		return nil, ErrNotCreateFunction
	}
	name, ok := p.acceptIdent()
	if !ok {
		return nil, p.errf("expected function name")
	}
	if _, reserved := builtins[name]; reserved {
		// It would be stored and never run: Call dispatches system
		// contracts first.
		return nil, fmt.Errorf("proc: %q is a system contract and cannot be redefined", name)
	}
	proc.Name = name
	if !p.acceptOp("(") {
		return nil, p.errf("expected ( after function name")
	}
	if !p.acceptOp(")") {
		for {
			pn, ok := p.acceptIdent()
			if !ok {
				return nil, p.errf("expected parameter name")
			}
			kind, err := p.typeName()
			if err != nil {
				return nil, err
			}
			proc.Params = append(proc.Params, Param{Name: pn, Type: kind})
			if p.acceptOp(",") {
				continue
			}
			if p.acceptOp(")") {
				break
			}
			return nil, p.errf("expected , or ) in parameter list")
		}
	}
	if !p.acceptKW("RETURNS") {
		return nil, p.errf("expected RETURNS")
	}
	if p.acceptKW("VOID") {
		proc.Returns = types.KindNull
	} else {
		kind, err := p.typeName()
		if err != nil {
			return nil, err
		}
		proc.Returns = kind
	}
	if !p.acceptKW("AS") {
		return nil, p.errf("expected AS")
	}
	if !p.acceptOp("$$") {
		return nil, p.errf("expected $$ before function body")
	}
	bodyStart := p.cur().Pos
	// Find the closing $$ at token level.
	depth := 0
	closeIdx := -1
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.Kind == sqlparser.TokOp && t.Text == "$$" && depth == 0 {
			closeIdx = i
			break
		}
	}
	if closeIdx < 0 {
		return nil, p.errf("unterminated $$ function body")
	}
	bodyEnd := p.toks[closeIdx].Pos
	body := src[bodyStart:bodyEnd]
	p.pos = closeIdx + 1
	if p.acceptKW("LANGUAGE") {
		p.acceptIdent() // language name, informational
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected input after function definition")
	}

	decls, stmts, err := parseBody(body)
	if err != nil {
		return nil, fmt.Errorf("proc: in function %s: %w", proc.Name, err)
	}
	proc.Decls = decls
	proc.Body = stmts

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
	toks, err := sqlparser.Tokenize(src)
	if err != nil {
		return "", err
	}
	p := &tokCursor{src: src, toks: toks}
	if !p.acceptKW("DROP") || !p.acceptKW("FUNCTION") {
		return "", ErrNotDropFunction
	}
	name, ok := p.acceptIdent()
	if !ok {
		return "", p.errf("expected function name")
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return "", p.errf("unexpected input after DROP FUNCTION")
	}
	return name, nil
}

// --- token cursor ------------------------------------------------------------

type tokCursor struct {
	src  string
	toks []sqlparser.Token
	pos  int
}

func (p *tokCursor) cur() sqlparser.Token { return p.toks[p.pos] }

func (p *tokCursor) atEOF() bool { return p.cur().Kind == sqlparser.TokEOF }

func (p *tokCursor) advance() sqlparser.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *tokCursor) peekKW(kw string) bool {
	t := p.cur()
	return t.Kind == sqlparser.TokKeyword && t.Text == kw
}

func (p *tokCursor) acceptKW(kw string) bool {
	if p.peekKW(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *tokCursor) acceptOp(op string) bool {
	t := p.cur()
	if t.Kind == sqlparser.TokOp && t.Text == op {
		p.advance()
		return true
	}
	return false
}

func (p *tokCursor) acceptIdent() (string, bool) {
	t := p.cur()
	if t.Kind == sqlparser.TokIdent {
		p.advance()
		return t.Text, true
	}
	return "", false
}

func (p *tokCursor) typeName() (types.Kind, error) {
	t := p.cur()
	if t.Kind != sqlparser.TokKeyword {
		return types.KindNull, p.errf("expected type name, found %s", t)
	}
	name := t.Text
	p.advance()
	if name == "DOUBLE" && p.acceptKW("PRECISION") {
		name = "DOUBLE"
	}
	if name == "VARCHAR" && p.acceptOp("(") {
		p.advance() // length
		if !p.acceptOp(")") {
			return types.KindNull, p.errf("expected ) after VARCHAR length")
		}
	}
	k, ok := sqlparser.KindFromTypeName(name)
	if !ok {
		return types.KindNull, p.errf("unknown type %s", name)
	}
	return k, nil
}

func (p *tokCursor) errf(format string, args ...any) error {
	return fmt.Errorf("proc: at offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// --- body parsing --------------------------------------------------------------

// parseBody parses "[DECLARE decls] BEGIN stmts END[;]".
func parseBody(body string) ([]VarDecl, []Stmt, error) {
	toks, err := sqlparser.Tokenize(body)
	if err != nil {
		return nil, nil, err
	}
	p := &tokCursor{src: body, toks: toks}

	var decls []VarDecl
	if p.acceptKW("DECLARE") {
		for !p.peekKW("BEGIN") && !p.atEOF() {
			name, ok := p.acceptIdent()
			if !ok {
				return nil, nil, p.errf("expected variable name in DECLARE")
			}
			kind, err := p.typeName()
			if err != nil {
				return nil, nil, err
			}
			d := VarDecl{Name: name, Type: kind}
			if p.acceptOp(":=") {
				expr, err := p.parseExprUntil(";")
				if err != nil {
					return nil, nil, err
				}
				d.Init = expr
			}
			if !p.acceptOp(";") {
				return nil, nil, p.errf("expected ; after declaration of %s", name)
			}
			decls = append(decls, d)
		}
	}
	if !p.acceptKW("BEGIN") {
		return nil, nil, p.errf("expected BEGIN")
	}
	stmts, err := p.parseStmts(map[string]bool{"END": true})
	if err != nil {
		return nil, nil, err
	}
	if !p.acceptKW("END") {
		return nil, nil, p.errf("expected END")
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, nil, p.errf("unexpected input after END")
	}
	return decls, stmts, nil
}

// parseStmts parses statements until one of the stop keywords appears at
// the top level (the stop token is not consumed).
func (p *tokCursor) parseStmts(stop map[string]bool) ([]Stmt, error) {
	var out []Stmt
	for {
		t := p.cur()
		if t.Kind == sqlparser.TokEOF {
			return out, nil
		}
		if t.Kind == sqlparser.TokKeyword && stop[t.Text] {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *tokCursor) parseStmt() (Stmt, error) {
	t := p.cur()
	if t.Kind == sqlparser.TokKeyword {
		switch t.Text {
		case "IF":
			return p.parseIf()
		case "WHILE":
			return p.parseWhile()
		case "RAISE":
			p.advance()
			if !p.acceptKW("EXCEPTION") {
				return nil, p.errf("expected EXCEPTION after RAISE")
			}
			expr, err := p.parseExprUntil(";")
			if err != nil {
				return nil, err
			}
			if !p.acceptOp(";") {
				return nil, p.errf("expected ; after RAISE")
			}
			return &Raise{Msg: expr}, nil
		case "RETURN":
			p.advance()
			if p.acceptOp(";") {
				return &Return{}, nil
			}
			expr, err := p.parseExprUntil(";")
			if err != nil {
				return nil, err
			}
			if !p.acceptOp(";") {
				return nil, p.errf("expected ; after RETURN")
			}
			return &Return{Expr: expr}, nil
		case "EXIT":
			p.advance()
			if !p.acceptOp(";") {
				return nil, p.errf("expected ; after EXIT")
			}
			return &Exit{}, nil
		case "CONTINUE":
			p.advance()
			if !p.acceptOp(";") {
				return nil, p.errf("expected ; after CONTINUE")
			}
			return &Continue{}, nil
		case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP":
			return p.parseSQLStmt()
		}
		return nil, p.errf("unexpected keyword %s", t.Text)
	}
	// Assignment: ident := expr ;
	if t.Kind == sqlparser.TokIdent {
		name := t.Text
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == sqlparser.TokOp && p.toks[p.pos+1].Text == ":=" {
			p.advance() // ident
			p.advance() // :=
			expr, err := p.parseExprUntil(";")
			if err != nil {
				return nil, err
			}
			if !p.acceptOp(";") {
				return nil, p.errf("expected ; after assignment to %s", name)
			}
			return &Assign{Name: name, Expr: expr}, nil
		}
	}
	return nil, p.errf("unexpected token %s", t)
}

func (p *tokCursor) parseIf() (Stmt, error) {
	p.advance() // IF
	stmt := &If{}
	for {
		cond, err := p.parseExprUntilKW("THEN")
		if err != nil {
			return nil, err
		}
		if !p.acceptKW("THEN") {
			return nil, p.errf("expected THEN")
		}
		body, err := p.parseStmts(map[string]bool{"ELSIF": true, "ELSE": true, "END": true})
		if err != nil {
			return nil, err
		}
		stmt.Arms = append(stmt.Arms, CondBlock{Cond: cond, Body: body})
		if p.acceptKW("ELSIF") {
			continue
		}
		break
	}
	if p.acceptKW("ELSE") {
		body, err := p.parseStmts(map[string]bool{"END": true})
		if err != nil {
			return nil, err
		}
		stmt.Else = body
	}
	if !p.acceptKW("END") || !p.acceptKW("IF") {
		return nil, p.errf("expected END IF")
	}
	if !p.acceptOp(";") {
		return nil, p.errf("expected ; after END IF")
	}
	return stmt, nil
}

func (p *tokCursor) parseWhile() (Stmt, error) {
	p.advance() // WHILE
	cond, err := p.parseExprUntilKW("LOOP")
	if err != nil {
		return nil, err
	}
	if !p.acceptKW("LOOP") {
		return nil, p.errf("expected LOOP")
	}
	body, err := p.parseStmts(map[string]bool{"END": true})
	if err != nil {
		return nil, err
	}
	if !p.acceptKW("END") || !p.acceptKW("LOOP") {
		return nil, p.errf("expected END LOOP")
	}
	if !p.acceptOp(";") {
		return nil, p.errf("expected ; after END LOOP")
	}
	return &While{Cond: cond, Body: body}, nil
}

// parseSQLStmt slices out one embedded SQL statement (terminated by a
// top-level ';') and parses it with the SQL parser, extracting any
// top-level SELECT ... INTO vars.
func (p *tokCursor) parseSQLStmt() (Stmt, error) {
	start := p.pos
	depth := 0
	end := -1 // token index of the terminating ';'
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.Kind == sqlparser.TokOp {
			switch t.Text {
			case "(":
				depth++
			case ")":
				depth--
			case ";":
				if depth == 0 {
					end = i
				}
			}
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return nil, p.errf("unterminated SQL statement (missing ;)")
	}

	// Locate top-level INTO (only valid directly inside a SELECT list).
	intoTok, fromTok := -1, -1
	var intoVars []string
	if p.toks[start].Text == "SELECT" {
		d := 0
		for i := start; i < end; i++ {
			t := p.toks[i]
			if t.Kind == sqlparser.TokOp {
				if t.Text == "(" {
					d++
				} else if t.Text == ")" {
					d--
				}
			}
			if d == 0 && t.Kind == sqlparser.TokKeyword && t.Text == "INTO" {
				intoTok = i
				j := i + 1
				for j < end {
					if p.toks[j].Kind != sqlparser.TokIdent {
						break
					}
					intoVars = append(intoVars, p.toks[j].Text)
					j++
					if j < end && p.toks[j].Kind == sqlparser.TokOp && p.toks[j].Text == "," {
						j++
						continue
					}
					break
				}
				if len(intoVars) == 0 {
					return nil, p.errf("expected variable names after INTO")
				}
				fromTok = j
				break
			}
		}
	}

	srcStart := p.toks[start].Pos
	srcEnd := p.toks[end].Pos
	var sqlText string
	if intoTok >= 0 {
		sqlText = p.src[srcStart:p.toks[intoTok].Pos] + " " + p.src[p.toks[fromTok].Pos:srcEnd]
	} else {
		sqlText = p.src[srcStart:srcEnd]
	}
	stmt, err := sqlparser.ParseStatement(sqlText)
	if err != nil {
		return nil, fmt.Errorf("in embedded SQL %q: %w", strings.TrimSpace(sqlText), err)
	}
	p.pos = end + 1
	return &SQLStmt{Stmt: stmt, IntoVars: intoVars, Src: sqlText}, nil
}

// parseExprUntil parses an expression ending at a top-level operator
// token (typically ";"), which is not consumed.
func (p *tokCursor) parseExprUntil(stopOp string) (sqlparser.Expr, error) {
	start := p.pos
	depth := 0
	end := -1
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.Kind == sqlparser.TokOp {
			switch t.Text {
			case "(":
				depth++
			case ")":
				depth--
			case stopOp:
				if depth == 0 {
					end = i
				}
			}
		}
		if t.Kind == sqlparser.TokEOF {
			break
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return nil, p.errf("expected %q after expression", stopOp)
	}
	text := p.src[p.toks[start].Pos:p.toks[end].Pos]
	expr, err := sqlparser.ParseExprString(text)
	if err != nil {
		return nil, err
	}
	p.pos = end
	return expr, nil
}

// parseExprUntilKW parses an expression ending at a top-level keyword,
// which is not consumed.
func (p *tokCursor) parseExprUntilKW(stopKW string) (sqlparser.Expr, error) {
	start := p.pos
	depth := 0
	end := -1
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.Kind == sqlparser.TokOp {
			switch t.Text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
		if depth == 0 && t.Kind == sqlparser.TokKeyword && t.Text == stopKW {
			end = i
			break
		}
		if t.Kind == sqlparser.TokEOF {
			break
		}
	}
	if end < 0 {
		return nil, p.errf("expected %s after expression", stopKW)
	}
	text := p.src[p.toks[start].Pos:p.toks[end].Pos]
	expr, err := sqlparser.ParseExprString(text)
	if err != nil {
		return nil, err
	}
	p.pos = end
	return expr, nil
}
