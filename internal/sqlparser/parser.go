package sqlparser

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bcrdb/internal/types"
)

// Parser is a recursive-descent parser over a token stream. Its cursor
// methods are exported for the contract language (internal/proc), which
// parses on the same cursor: a contract source is lexed once, and its
// embedded statements, expressions and types are this grammar's.
type Parser struct {
	src  string
	toks []Token
	pos  int
}

// NewParser returns a parser for src.
func NewParser(src string) (*Parser, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks}, nil
}

// ParseStatement parses exactly one statement (an optional trailing
// semicolon is consumed) and requires the input to end there.
func ParseStatement(src string) (Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	p.AcceptOp(";")
	if !p.AtEOF() {
		return nil, p.ErrHere("unexpected %s after statement", p.Cur())
	}
	return s, nil
}

// --- token plumbing ---------------------------------------------------------

// Cur returns the token at the cursor; at the end it is TokEOF.
func (p *Parser) Cur() Token  { return p.toks[p.pos] }
func (p *Parser) AtEOF() bool { return p.Cur().Kind == TokEOF }

// Advance consumes and returns the token at the cursor.
func (p *Parser) Advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

// ErrHere returns a SyntaxError at the cursor's position in the source.
func (p *Parser) ErrHere(format string, args ...any) error {
	return &SyntaxError{Pos: p.Cur().Pos, Msg: fmt.Sprintf(format, args...), Src: p.src}
}

// PeekKeyword, AcceptKeyword and ExpectKeyword test for, consume if
// present, and require the keyword kw at the cursor; AcceptOp and
// ExpectOp do the latter two for an operator.
func (p *Parser) PeekKeyword(kw string) bool {
	t := p.Cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) AcceptKeyword(kw string) bool {
	if p.PeekKeyword(kw) {
		p.Advance()
		return true
	}
	return false
}

func (p *Parser) ExpectKeyword(kw string) error {
	if !p.AcceptKeyword(kw) {
		return p.ErrHere("expected %s, found %s", kw, p.Cur())
	}
	return nil
}

func (p *Parser) peekOp(op string) bool {
	t := p.Cur()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) AcceptOp(op string) bool {
	if p.peekOp(op) {
		p.Advance()
		return true
	}
	return false
}

func (p *Parser) ExpectOp(op string) error {
	if !p.AcceptOp(op) {
		return p.ErrHere("expected %q, found %s", op, p.Cur())
	}
	return nil
}

// ExpectIdent consumes an identifier (or unreserved keyword usable as a
// name) and returns its lower-cased text.
func (p *Parser) ExpectIdent(what string) (string, error) {
	t := p.Cur()
	if t.Kind == TokIdent {
		p.Advance()
		return t.Text, nil
	}
	return "", p.ErrHere("expected %s, found %s", what, t)
}

// CutInto removes the first "INTO name[, name]..." at the top level of
// the statement at the cursor, which ends at its first top-level ";", from
// the token stream and returns the names. PL/pgSQL lets a SELECT's INTO
// stand anywhere at its top level; the statement then parses without it.
func (p *Parser) CutInto() ([]string, error) {
	depth := 0
	for i := p.pos; p.toks[i].Kind != TokEOF; i++ {
		switch t := p.toks[i]; {
		case t.Kind == TokOp && t.Text == "(":
			depth++
		case t.Kind == TokOp && t.Text == ")":
			depth--
		case depth != 0:
		case t.Kind == TokOp && t.Text == ";":
			return nil, nil
		case t.Kind == TokKeyword && t.Text == "INTO":
			var names []string
			j := i + 1
			for p.toks[j].Kind == TokIdent {
				names = append(names, p.toks[j].Text)
				if j++; !(p.toks[j].Kind == TokOp && p.toks[j].Text == ",") {
					break
				}
				j++
			}
			if len(names) == 0 {
				return nil, &SyntaxError{Pos: p.toks[j].Pos, Msg: "expected variable names after INTO", Src: p.src}
			}
			p.toks = slices.Delete(p.toks, i, j)
			return names, nil
		}
	}
	return nil, nil
}

// --- statements -------------------------------------------------------------

// ParseStatement parses the statement at the cursor.
func (p *Parser) ParseStatement() (Statement, error) {
	t := p.Cur()
	if t.Kind != TokKeyword {
		return nil, p.ErrHere("expected statement, found %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.Advance()
		if !p.PeekKeyword("SELECT") {
			return nil, p.ErrHere("expected SELECT after EXPLAIN, found %s", p.Cur())
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel.(*Select)}, nil
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	}
	return nil, p.ErrHere("unsupported statement %s", t)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.Advance() // CREATE
	switch {
	case p.AcceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.AcceptKeyword("UNIQUE"):
		if err := p.ExpectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.AcceptKeyword("INDEX"):
		return p.parseCreateIndex(false)
	}
	return nil, p.ErrHere("expected TABLE or INDEX after CREATE")
}

func (p *Parser) parseCreateTable() (Statement, error) {
	ct := &CreateTable{}
	if p.AcceptKeyword("IF") {
		if err := p.ExpectKeyword("NOT"); err != nil {
			return nil, err
		}
		// EXISTS is not a keyword; accept as identifier.
		if w, err := p.ExpectIdent("EXISTS"); err != nil || w != "exists" {
			return nil, p.ErrHere("expected EXISTS")
		}
		ct.IfNotExists = true
	}
	name, err := p.ExpectIdent("table name")
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	for {
		if p.AcceptKeyword("PRIMARY") {
			if err := p.ExpectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.ExpectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ExpectIdent("column name")
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, c)
				if !p.AcceptOp(",") {
					break
				}
			}
			if err := p.ExpectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
			if col.PrimaryKey {
				ct.PrimaryKey = append(ct.PrimaryKey, col.Name)
			}
		}
		if !p.AcceptOp(",") {
			break
		}
	}
	if err := p.ExpectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.ExpectIdent("column name")
	if err != nil {
		return cd, err
	}
	cd.Name = name
	kind, err := p.ParseTypeName()
	if err != nil {
		return cd, err
	}
	cd.Type = kind
	for {
		switch {
		case p.AcceptKeyword("NOT"):
			if err := p.ExpectKeyword("NULL"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.AcceptKeyword("PRIMARY"):
			if err := p.ExpectKeyword("KEY"); err != nil {
				return cd, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		case p.AcceptKeyword("UNIQUE"):
			cd.Unique = true
		case p.AcceptKeyword("DEFAULT"):
			e, err := p.ParseExpr()
			if err != nil {
				return cd, err
			}
			cd.Default = e
		default:
			return cd, nil
		}
	}
}

// ParseTypeName parses a column type: CREATE TABLE's, CAST's and a
// contract's parameters, return value and variables.
func (p *Parser) ParseTypeName() (types.Kind, error) {
	t := p.Cur()
	if t.Kind != TokKeyword {
		return types.KindNull, p.ErrHere("expected type name, found %s", t)
	}
	p.Advance()
	name := t.Text
	if name == "DOUBLE" && p.AcceptKeyword("PRECISION") {
		name = "DOUBLE"
	}
	if name == "VARCHAR" && p.AcceptOp("(") {
		if p.Cur().Kind != TokInt {
			return types.KindNull, p.ErrHere("expected length in VARCHAR(n)")
		}
		p.Advance()
		if err := p.ExpectOp(")"); err != nil {
			return types.KindNull, err
		}
	}
	k, ok := kindFromTypeName(name)
	if !ok {
		return types.KindNull, p.ErrHere("unknown type %s", name)
	}
	return k, nil
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	ci := &CreateIndex{Unique: unique}
	name, err := p.ExpectIdent("index name")
	if err != nil {
		return nil, err
	}
	ci.Name = name
	if err := p.ExpectKeyword("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.ExpectIdent("table name")
	if err != nil {
		return nil, err
	}
	ci.Table = tbl
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	for {
		c, err := p.ExpectIdent("column name")
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, c)
		if !p.AcceptOp(",") {
			break
		}
	}
	if err := p.ExpectOp(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.Advance() // DROP
	if err := p.ExpectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.AcceptKeyword("IF") {
		if w, err := p.ExpectIdent("EXISTS"); err != nil || w != "exists" {
			return nil, p.ErrHere("expected EXISTS")
		}
		dt.IfExists = true
	}
	name, err := p.ExpectIdent("table name")
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.Advance() // INSERT
	if err := p.ExpectKeyword("INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	tbl, err := p.ExpectIdent("table name")
	if err != nil {
		return nil, err
	}
	ins.Table = tbl
	if p.AcceptOp("(") {
		for {
			c, err := p.ExpectIdent("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.AcceptOp(",") {
				break
			}
		}
		if err := p.ExpectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.ExpectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.ExpectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.AcceptOp(",") {
				break
			}
		}
		if err := p.ExpectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.AcceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.Advance() // UPDATE
	up := &Update{}
	tbl, err := p.ExpectIdent("table name")
	if err != nil {
		return nil, err
	}
	up.Table = tbl
	if err := p.ExpectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ExpectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.ExpectOp("="); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Column: col, Value: e})
		if !p.AcceptOp(",") {
			break
		}
	}
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.Advance() // DELETE
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	del := &Delete{}
	tbl, err := p.ExpectIdent("table name")
	if err != nil {
		return nil, err
	}
	del.Table = tbl
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	p.Advance() // SELECT
	sel := &Select{}
	sel.Distinct = p.AcceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.AcceptOp(",") {
			break
		}
	}

	if p.AcceptKeyword("FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = &tr
		if p.AcceptKeyword("PROVENANCE") {
			sel.Provenance = true
		}
		for {
			var kind string
			switch {
			case p.AcceptKeyword("JOIN"):
				kind = "INNER"
			case p.AcceptKeyword("INNER"):
				if err := p.ExpectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = "INNER"
			case p.AcceptKeyword("LEFT"):
				p.AcceptKeyword("OUTER")
				if err := p.ExpectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = "LEFT"
			case p.AcceptOp(","):
				// Comma joins are implicit inner joins whose predicate
				// lives in WHERE; represent as INNER with ON TRUE.
				right, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.Joins = append(sel.Joins, Join{Kind: "INNER", Right: right,
					On: &Literal{Val: types.NewBool(true)}})
				continue
			default:
				kind = ""
			}
			if kind == "" {
				break
			}
			right, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, Join{Kind: kind, Right: right, On: on})
		}
	}

	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.AcceptKeyword("GROUP") {
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.AcceptOp(",") {
				break
			}
		}
	}
	if p.AcceptKeyword("HAVING") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.AcceptKeyword("ORDER") {
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.AcceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.AcceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.AcceptOp(",") {
				break
			}
		}
	}
	if p.AcceptKeyword("LIMIT") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.AcceptKeyword("OFFSET") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.AcceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.Cur().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		tbl := p.Advance().Text
		p.Advance() // .
		p.Advance() // *
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.ParseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.AcceptKeyword("AS") {
		a, err := p.ExpectIdent("alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.Cur().Kind == TokIdent {
		item.Alias = p.Advance().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	pos := p.Cur().Pos
	name, err := p.ExpectIdent("table name")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: name, Alias: name, Pos: pos}
	if p.AcceptKeyword("AS") {
		a, err := p.ExpectIdent("alias")
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a
	} else if p.Cur().Kind == TokIdent {
		tr.Alias = p.Advance().Text
	}
	return tr, nil
}

// --- expressions ------------------------------------------------------------

// ParseExpr parses an expression with standard SQL precedence.
func (p *Parser) ParseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.PeekKeyword("OR") {
		pos := p.Cur().Pos
		p.Advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.PeekKeyword("AND") {
		pos := p.Cur().Pos
		p.Advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.AcceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.Cur()
		switch {
		case t.Kind == TokOp && (t.Text == "=" || t.Text == "<>" || t.Text == "!=" ||
			t.Text == "<" || t.Text == "<=" || t.Text == ">" || t.Text == ">="):
			p.Advance()
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r, Pos: t.Pos}
		case p.PeekKeyword("IS"):
			p.Advance()
			not := p.AcceptKeyword("NOT")
			if err := p.ExpectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Not: not}
		case p.PeekKeyword("IN"):
			p.Advance()
			e, err := p.parseInTail(l, false)
			if err != nil {
				return nil, err
			}
			l = e
		case p.PeekKeyword("BETWEEN"):
			p.Advance()
			e, err := p.parseBetweenTail(l, false)
			if err != nil {
				return nil, err
			}
			l = e
		case p.PeekKeyword("LIKE"):
			p.Advance()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Like{X: l, Pattern: pat}
		case p.PeekKeyword("NOT"):
			// x NOT IN / NOT BETWEEN / NOT LIKE
			save := p.pos
			p.Advance()
			switch {
			case p.AcceptKeyword("IN"):
				e, err := p.parseInTail(l, true)
				if err != nil {
					return nil, err
				}
				l = e
			case p.AcceptKeyword("BETWEEN"):
				e, err := p.parseBetweenTail(l, true)
				if err != nil {
					return nil, err
				}
				l = e
			case p.AcceptKeyword("LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &Like{X: l, Pattern: pat, Not: true}
			default:
				p.pos = save
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseInTail(l Expr, not bool) (Expr, error) {
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	in := &InList{X: l, Not: not}
	for {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.AcceptOp(",") {
			break
		}
	}
	if err := p.ExpectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseBetweenTail(l Expr, not bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Between{X: l, Lo: lo, Hi: hi, Not: not}, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.Cur()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.Advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r, Pos: t.Pos}
		} else {
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.Cur()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.Advance()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r, Pos: t.Pos}
		} else {
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.AcceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok && lit.Val.Kind() == types.KindInt {
			return &Literal{Val: types.NewInt(-lit.Val.Int())}, nil
		}
		if lit, ok := x.(*Literal); ok && lit.Val.Kind() == types.KindFloat {
			return &Literal{Val: types.NewFloat(-lit.Val.Float())}, nil
		}
		return &Unary{Op: "-", X: x}, nil
	}
	if p.AcceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.Cur()
	switch t.Kind {
	case TokInt:
		p.Advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.ErrHere("bad integer literal %q", t.Text)
		}
		return &Literal{Val: types.NewInt(v)}, nil
	case TokFloat:
		p.Advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.ErrHere("bad float literal %q", t.Text)
		}
		return &Literal{Val: types.NewFloat(v)}, nil
	case TokString:
		p.Advance()
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokParam:
		p.Advance()
		n, err := strconv.Atoi(t.Text[1:])
		if err != nil || n < 1 {
			return nil, p.ErrHere("bad parameter %q", t.Text)
		}
		return &Param{N: n, Pos: t.Pos}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.Advance()
			return &Literal{Val: types.Null()}, nil
		case "TRUE":
			p.Advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.Advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.Advance()
			return p.parseFuncCall(t.Text, t.Pos)
		}
		return nil, p.ErrHere("unexpected keyword %s in expression", t.Text)
	case TokOp:
		if t.Text == "(" {
			p.Advance()
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.ErrHere("unexpected %s in expression", t)
	case TokIdent:
		p.Advance()
		// Function call?
		if p.peekOp("(") {
			return p.parseFuncCall(strings.ToUpper(t.Text), t.Pos)
		}
		// Qualified column t.c?
		if p.peekOp(".") {
			p.Advance()
			col, err := p.ExpectIdent("column name")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col, Pos: t.Pos}, nil
		}
		return &ColumnRef{Column: t.Text, Pos: t.Pos}, nil
	}
	return nil, p.ErrHere("unexpected %s in expression", t)
}

func (p *Parser) parseFuncCall(name string, pos int) (Expr, error) {
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name, Pos: pos}
	if p.AcceptOp("*") {
		fc.Star = true
		if err := p.ExpectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.AcceptOp(")") {
		return fc, nil
	}
	fc.Distinct = p.AcceptKeyword("DISTINCT")
	for {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.AcceptOp(",") {
			break
		}
	}
	if err := p.ExpectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.Advance() // CASE
	ce := &CaseExpr{}
	for p.AcceptKeyword("WHEN") {
		cond, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.ErrHere("CASE requires at least one WHEN arm")
	}
	if p.AcceptKeyword("ELSE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.ExpectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *Parser) parseCast() (Expr, error) {
	p.Advance() // CAST
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	x, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("AS"); err != nil {
		return nil, err
	}
	k, err := p.ParseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectOp(")"); err != nil {
		return nil, err
	}
	return &Cast{X: x, To: k}, nil
}
