package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"bcrdb/internal/types"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	src  string
	toks []Token
	pos  int
}

// NewParser returns a parser for src.
func NewParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
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
	s, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errHere("unexpected %s after statement", p.cur())
	}
	return s, nil
}

// ParseStatements parses a semicolon-separated statement list.
func ParseStatements(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.atEOF() {
		if p.acceptOp(";") {
			continue
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.acceptOp(";") && !p.atEOF() {
			return nil, p.errHere("expected ';' between statements, found %s", p.cur())
		}
	}
	return out, nil
}

// ParseExprString parses a standalone scalar expression.
func ParseExprString(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errHere("unexpected %s after expression", p.cur())
	}
	return e, nil
}

// --- token plumbing ---------------------------------------------------------

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) errHere(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...), Src: p.src}
}

func (p *Parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errHere("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *Parser) peekOp(op string) bool {
	t := p.cur()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errHere("expected %q, found %s", op, p.cur())
	}
	return nil
}

// expectIdent consumes an identifier (or unreserved keyword usable as a
// name) and returns its lower-cased text.
func (p *Parser) expectIdent(what string) (string, error) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.advance()
		return t.Text, nil
	}
	return "", p.errHere("expected %s, found %s", what, t)
}

// --- statements -------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errHere("expected statement, found %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.advance()
		if !p.peekKeyword("SELECT") {
			return nil, p.errHere("expected SELECT after EXPLAIN, found %s", p.cur())
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
	return nil, p.errHere("unsupported statement %s", t)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(false)
	}
	return nil, p.errHere("expected TABLE or INDEX after CREATE")
}

func (p *Parser) parseCreateTable() (Statement, error) {
	ct := &CreateTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		// EXISTS is not a keyword; accept as identifier.
		if w, err := p.expectIdent("EXISTS"); err != nil || w != "exists" {
			return nil, p.errHere("expected EXISTS")
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.expectIdent("column name")
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, c)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
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
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.expectIdent("column name")
	if err != nil {
		return cd, err
	}
	cd.Name = name
	kind, err := p.parseTypeName()
	if err != nil {
		return cd, err
	}
	cd.Type = kind
	for {
		switch {
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return cd, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			cd.Unique = true
		case p.acceptKeyword("DEFAULT"):
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

func (p *Parser) parseTypeName() (types.Kind, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return types.KindNull, p.errHere("expected type name, found %s", t)
	}
	p.advance()
	name := t.Text
	if name == "DOUBLE" && p.acceptKeyword("PRECISION") {
		name = "DOUBLE"
	}
	if name == "VARCHAR" && p.acceptOp("(") {
		if p.cur().Kind != TokInt {
			return types.KindNull, p.errHere("expected length in VARCHAR(n)")
		}
		p.advance()
		if err := p.expectOp(")"); err != nil {
			return types.KindNull, err
		}
	}
	k, ok := KindFromTypeName(name)
	if !ok {
		return types.KindNull, p.errHere("unknown type %s", name)
	}
	return k, nil
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	ci := &CreateIndex{Unique: unique}
	name, err := p.expectIdent("index name")
	if err != nil {
		return nil, err
	}
	ci.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ci.Table = tbl
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		c, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, c)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.acceptKeyword("IF") {
		if w, err := p.expectIdent("EXISTS"); err != nil || w != "exists" {
			return nil, p.errHere("expected EXISTS")
		}
		dt.IfExists = true
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	tbl, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ins.Table = tbl
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	up := &Update{}
	tbl, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	up.Table = tbl
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Column: col, Value: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	del := &Delete{}
	tbl, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	del.Table = tbl
	if p.acceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	p.advance() // SELECT
	sel := &Select{}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = &tr
		if p.acceptKeyword("PROVENANCE") {
			sel.Provenance = true
		}
		for {
			var kind string
			switch {
			case p.acceptKeyword("JOIN"):
				kind = "INNER"
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = "INNER"
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = "LEFT"
			case p.acceptOp(","):
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
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, Join{Kind: kind, Right: right, On: on})
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.cur().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		tbl := p.advance().Text
		p.advance() // .
		p.advance() // *
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.ParseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	pos := p.cur().Pos
	name, err := p.expectIdent("table name")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: name, Alias: name, Pos: pos}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a
	} else if p.cur().Kind == TokIdent {
		tr.Alias = p.advance().Text
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
	for p.peekKeyword("OR") {
		pos := p.cur().Pos
		p.advance()
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
	for p.peekKeyword("AND") {
		pos := p.cur().Pos
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
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
		t := p.cur()
		switch {
		case t.Kind == TokOp && (t.Text == "=" || t.Text == "<>" || t.Text == "!=" ||
			t.Text == "<" || t.Text == "<=" || t.Text == ">" || t.Text == ">="):
			p.advance()
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r, Pos: t.Pos}
		case p.peekKeyword("IS"):
			p.advance()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Not: not}
		case p.peekKeyword("IN"):
			p.advance()
			e, err := p.parseInTail(l, false)
			if err != nil {
				return nil, err
			}
			l = e
		case p.peekKeyword("BETWEEN"):
			p.advance()
			e, err := p.parseBetweenTail(l, false)
			if err != nil {
				return nil, err
			}
			l = e
		case p.peekKeyword("LIKE"):
			p.advance()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Like{X: l, Pattern: pat}
		case p.peekKeyword("NOT"):
			// x NOT IN / NOT BETWEEN / NOT LIKE
			save := p.pos
			p.advance()
			switch {
			case p.acceptKeyword("IN"):
				e, err := p.parseInTail(l, true)
				if err != nil {
					return nil, err
				}
				l = e
			case p.acceptKeyword("BETWEEN"):
				e, err := p.parseBetweenTail(l, true)
				if err != nil {
					return nil, err
				}
				l = e
			case p.acceptKeyword("LIKE"):
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
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &InList{X: l, Not: not}
	for {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseBetweenTail(l Expr, not bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
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
		t := p.cur()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.advance()
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
		t := p.cur()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.advance()
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
	if p.acceptOp("-") {
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
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errHere("bad integer literal %q", t.Text)
		}
		return &Literal{Val: types.NewInt(v)}, nil
	case TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errHere("bad float literal %q", t.Text)
		}
		return &Literal{Val: types.NewFloat(v)}, nil
	case TokString:
		p.advance()
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokParam:
		p.advance()
		n, err := strconv.Atoi(t.Text[1:])
		if err != nil || n < 1 {
			return nil, p.errHere("bad parameter %q", t.Text)
		}
		return &Param{N: n, Pos: t.Pos}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.advance()
			return &Literal{Val: types.Null()}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.advance()
			return p.parseFuncCall(t.Text, t.Pos)
		}
		return nil, p.errHere("unexpected keyword %s in expression", t.Text)
	case TokOp:
		if t.Text == "(" {
			p.advance()
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errHere("unexpected %s in expression", t)
	case TokIdent:
		p.advance()
		// Function call?
		if p.peekOp("(") {
			return p.parseFuncCall(strings.ToUpper(t.Text), t.Pos)
		}
		// Qualified column t.c?
		if p.peekOp(".") {
			p.advance()
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col, Pos: t.Pos}, nil
		}
		return &ColumnRef{Column: t.Text, Pos: t.Pos}, nil
	}
	return nil, p.errHere("unexpected %s in expression", t)
}

func (p *Parser) parseFuncCall(name string, pos int) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name, Pos: pos}
	if p.acceptOp("*") {
		fc.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptOp(")") {
		return fc, nil
	}
	fc.Distinct = p.acceptKeyword("DISTINCT")
	for {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.advance() // CASE
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *Parser) parseCast() (Expr, error) {
	p.advance() // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	k, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &Cast{X: x, To: k}, nil
}
